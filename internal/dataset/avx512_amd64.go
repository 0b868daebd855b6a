//go:build amd64 && !purego

package dataset

import "trigene/internal/bitvec"

// hasAVX512 selects the package's AVX-512 bodies — the validate-and-pack
// pass and the .raw reader's decode, transpose and assembly: the module's
// one probe, read once, when the package initialises.
var hasAVX512 = bitvec.HasAVX512()

// packBlocksAVX512 packs blocks >= 1 steps of 64 genotype bytes of src
// into 16 bytes of dst each and reports whether every byte was 0, 1 or 2;
// where one was not, the bytes it packed into are unspecified. The caller
// has checked both buffers hold that many bytes.
//
//go:noescape
func packBlocksAVX512(dst, src *byte, blocks int) (clean bool)

// rawCodesAVX512 decodes steps >= 1 runs of 32 (separator, digit) byte
// pairs of tail into 32 codes of row each, and reports whether every
// separator was the one in want and every digit 0, 1 or 2. want is the
// dword the pairs XOR to zero codes against: sep | '0'<<8 | sep<<16 |
// '0'<<24. Where a pair was bad, row holds garbage. The caller has checked
// tail holds 64*steps bytes and row 32*steps.
//
//go:noescape
func rawCodesAVX512(row, tail *byte, steps int, want uint32) (clean bool)

// transposeTileAVX512 turns one 64 x 64 tile of staged rows into quad
// bytes of a chunk: the four rows of quad q start at src+4*q*pitch, pitch
// bytes apart, and their 64 codes from there pack into 64 quad bytes;
// quads at or past quads (<= 64) read nothing and pack as zeros. Column c
// of the tile's quad bytes, 64 of them, goes to dst+c*stride; dst may be
// tile, 4 KiB of scratch. The caller has checked that every byte read and
// written is inside its buffer.
//
//go:noescape
func transposeTileAVX512(dst *byte, stride int, src *byte, pitch, quads int, tile *[rawTile * rawTile]byte)

// orGenotypesAVX512 ORs steps >= 1 runs of 64 bytes of the section src,
// shifted sh (0, 2, 4 or 6) bits up as one little-endian stream, into
// dst. The bits shifted out of the last qword are not written. The caller
// has checked both buffers hold 64*steps bytes.
//
//go:noescape
func orGenotypesAVX512(dst, src *byte, steps int, sh uint64)
