package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"trigene/internal/dataset"
)

// The .tpack on-disk format, version 2 (all integers little endian):
//
//	offset  size  field
//	0       4     magic "TPK1"
//	4       2     format version (2)
//	6       2     reserved (0)
//	8       8     total file size in bytes
//	16      4     M (SNPs)
//	20      4     N (samples)
//	24      4     controls
//	28      4     cases
//	32      32    SHA-256 content hash of the geno and phen sections
//	64      4     section count (2)
//	68      4     reserved (0)
//	72      24*k  section table: {u32 id, u32 crc32c, u64 off, u64 len}
//	...           sections, each 8-byte aligned
//
// Sections:
//
//	geno    packed 2-bit genotypes, row-major, (M*N+3)/4 bytes
//	phen    packed 1-bit phenotypes, (N+7)/8 bytes
//
// The content hash covers every byte a search reads: each encoding is
// built from these two sections. Each section also carries a CRC32-C
// in its table entry, verified on load, so disk bit rot or a torn copy
// is named as corruption rather than as a hash mismatch.
//
// Version 1 had the same header and three more sections after these,
// ids 3 to 5: the Binarized planes and the Split class-0 and class-1
// planes, derived from geno and phen but outside the content hash. A
// loader still accepts version 1: it bounds-checks all five table
// entries and reads, checksums and hashes only geno and phen.

// PackMagic is the 4-byte .tpack signature; loaders sniff it to tell
// packed datasets from raw matrix formats.
const PackMagic = "TPK1"

const packVersion = 2

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/
// arm64) used for per-section integrity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	secGeno = iota + 1
	secPhen
	numSections = 2 // the sections a pack is read from; all of version 2's
)

const (
	packHeaderSize   = 72
	sectionEntrySize = 24
)

// sectionCount is the number of section table entries a pack of the
// given format version has, 0 for a version this build does not read.
func sectionCount(version uint16) int {
	switch version {
	case 1:
		return 5
	case packVersion:
		return numSections
	}
	return 0
}

// IsPack reports whether the given prefix (≥ 4 bytes) carries the
// .tpack magic.
func IsPack(prefix []byte) bool {
	return len(prefix) >= 4 && string(prefix[:4]) == PackMagic
}

// WritePack serializes the store in the packed on-disk format: the
// header and the geno and phen sections, packing the matrix first on a
// matrix-born store. It builds no plane encoding.
func (s *Store) WritePack(w io.Writer) error {
	s.mu.Lock()
	packed := s.packedLocked()
	hash := s.hashLocked()
	s.mu.Unlock()
	sections := [numSections][]byte{packed.Geno, packed.Phen}
	hdr := make([]byte, packHeaderSize+numSections*sectionEntrySize)

	// Lay the sections out 8-byte aligned after the table.
	var offs [numSections]uint64
	pos := uint64(len(hdr))
	for i, sec := range sections {
		pos = (pos + 7) &^ 7
		offs[i] = pos
		pos += uint64(len(sec))
	}
	total := (pos + 7) &^ 7

	copy(hdr[0:], PackMagic)
	binary.LittleEndian.PutUint16(hdr[4:], packVersion)
	binary.LittleEndian.PutUint64(hdr[8:], total)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(s.m))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(s.n))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(s.controls))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(s.cases))
	if _, err := hex32(hash, hdr[32:64]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[64:], numSections)
	for i := range sections {
		e := hdr[packHeaderSize+i*sectionEntrySize:]
		binary.LittleEndian.PutUint32(e[0:], uint32(i+1))
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(sections[i], castagnoli))
		binary.LittleEndian.PutUint64(e[8:], offs[i])
		binary.LittleEndian.PutUint64(e[16:], uint64(len(sections[i])))
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	written := uint64(len(hdr))
	var pad [8]byte
	for i, sec := range sections {
		if offs[i] > written {
			if _, err := bw.Write(pad[:offs[i]-written]); err != nil {
				return err
			}
			written = offs[i]
		}
		if _, err := bw.Write(sec); err != nil {
			return err
		}
		written += uint64(len(sec))
	}
	if total > written {
		if _, err := bw.Write(pad[:total-written]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPack decodes a .tpack from a byte stream into a heap-backed
// Store — the wire path (cluster workers receive pack bytes). Open is
// the file path with mmap. The store's packed sections alias the
// buffered stream, except a version 1 pack's, which are copied out of
// it.
func ReadPack(r io.Reader) (*Store, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading pack: %w", err)
	}
	return parsePack(raw, nil)
}

// Open loads a .tpack file, mapping it into memory where the platform
// supports mmap (the packed sections then alias the page cache) and
// falling back to a read into the heap. Call Close on the returned
// Store when done with a mapped pack.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("store: pack %s too large (%d bytes)", path, size)
	}
	if data, merr := mmapFile(f, int(size)); merr == nil {
		st, perr := parsePack(data, data)
		if perr != nil {
			munmapBytes(data)
			return nil, fmt.Errorf("store: %s: %w", path, perr)
		}
		return st, nil
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	st, perr := parsePack(buf, nil)
	if perr != nil {
		return nil, fmt.Errorf("store: %s: %w", path, perr)
	}
	return st, nil
}

// parsePack validates a complete pack image and assembles a Store whose
// packed sections alias the image (a version 1 heap image's are copies);
// every encoding is built from them on first use. mapped is the mmap
// region to release on Close, nil for heap images.
func parsePack(data []byte, mapped []byte) (*Store, error) {
	if len(data) < packHeaderSize {
		return nil, fmt.Errorf("store: truncated pack: %d bytes, need at least %d", len(data), packHeaderSize)
	}
	if !IsPack(data) {
		return nil, fmt.Errorf("store: bad magic %q (not a .tpack)", data[:4])
	}
	v := binary.LittleEndian.Uint16(data[4:])
	count := sectionCount(v)
	if count == 0 {
		return nil, fmt.Errorf("store: unsupported pack version %d (this build reads versions 1 and %d)", v, packVersion)
	}
	if sz := binary.LittleEndian.Uint64(data[8:]); sz != uint64(len(data)) {
		return nil, fmt.Errorf("store: truncated pack: header says %d bytes, have %d", sz, len(data))
	}
	m := int(binary.LittleEndian.Uint32(data[16:]))
	n := int(binary.LittleEndian.Uint32(data[20:]))
	controls := int(binary.LittleEndian.Uint32(data[24:]))
	cases := int(binary.LittleEndian.Uint32(data[28:]))
	if m <= 0 || n <= 0 || m > 1<<24 || n > dataset.MaxSamples {
		return nil, fmt.Errorf("store: unreasonable dimensions %dx%d", m, n)
	}
	if controls < 0 || cases < 0 || controls+cases != n {
		return nil, fmt.Errorf("store: class counts %d+%d do not sum to %d samples", controls, cases, n)
	}
	if controls == 0 || cases == 0 {
		return nil, fmt.Errorf("store: degenerate dataset: %d controls, %d cases", controls, cases)
	}
	if sc := binary.LittleEndian.Uint32(data[64:]); sc != uint32(count) {
		return nil, fmt.Errorf("store: version %d pack has %d sections, want %d", v, sc, count)
	}
	tableEnd := packHeaderSize + count*sectionEntrySize
	if len(data) < tableEnd {
		return nil, fmt.Errorf("store: truncated pack: %d bytes, need at least %d", len(data), tableEnd)
	}

	var secs [numSections][]byte
	for i := 0; i < count; i++ {
		e := data[packHeaderSize+i*sectionEntrySize:]
		id := binary.LittleEndian.Uint32(e[0:])
		sum := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		ln := binary.LittleEndian.Uint64(e[16:])
		if id != uint32(i+1) {
			return nil, fmt.Errorf("store: section %d has id %d, want %d", i, id, i+1)
		}
		if off%8 != 0 || off < uint64(tableEnd) || off > uint64(len(data)) || ln > uint64(len(data))-off {
			return nil, fmt.Errorf("store: section %d [%d,+%d) out of bounds", id, off, ln)
		}
		if i >= numSections {
			continue // a version 1 plane section: never read
		}
		secs[i] = data[off : off+ln]
		if got := crc32.Checksum(secs[i], castagnoli); got != sum {
			return nil, fmt.Errorf("store: section %d checksum mismatch (%08x vs %08x): the pack is corrupted", id, got, sum)
		}
	}

	packed := &dataset.Packed{M: m, N: n, Geno: secs[secGeno-1], Phen: secs[secPhen-1]}
	if err := checkSections(packed); err != nil {
		return nil, err
	}
	if err := validateGeno(packed.Geno); err != nil {
		return nil, err
	}
	if pc := popcountBytes(packed.Phen); pc != cases {
		return nil, fmt.Errorf("store: phenotype section has %d cases, header says %d", pc, cases)
	}
	wantHash := hex.EncodeToString(data[32:64])
	if got := packed.Hash(); got != wantHash {
		return nil, fmt.Errorf("store: content hash mismatch: header names %.12s…, sections hash to %.12s…", wantHash, got)
	}
	if v != packVersion && mapped == nil {
		// A version 1 heap image is 3.5x its geno and phen sections: copy
		// them out, so its unread plane sections are not kept resident.
		packed.Geno, packed.Phen = bytes.Clone(packed.Geno), bytes.Clone(packed.Phen)
	}

	return &Store{
		m: m, n: n, controls: controls, cases: cases,
		hash:     wantHash,
		packed:   packed,
		words32:  make(map[words32Key]*dataset.Words32),
		mapped:   mapped,
		fromPack: true,
	}, nil
}

// validateGeno rejects a genotype section carrying the invalid 2-bit
// code 3 (its tail bits, checked before, are zero). It tests eight bytes
// at a time — a high bit shifted across a byte lands on an odd bit, which
// the mask drops — and goes byte by byte only from a word holding a 3, to
// name it.
func validateGeno(geno []byte) error {
	i := 0
	for ; i+8 <= len(geno); i += 8 {
		if v := binary.LittleEndian.Uint64(geno[i:]); (v>>1)&v&0x5555555555555555 != 0 {
			break
		}
	}
	for ; i < len(geno); i++ {
		if b := geno[i]; (b>>1)&b&0x55 != 0 {
			return fmt.Errorf("store: invalid packed genotype 3 near index %d", i*4)
		}
	}
	return nil
}

// hex32 decodes a 64-char hex digest into dst (32 bytes).
func hex32(s string, dst []byte) (int, error) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != 32 {
		return 0, fmt.Errorf("store: malformed content hash %q", s)
	}
	return copy(dst, raw), nil
}
