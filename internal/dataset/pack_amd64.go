//go:build amd64 && !purego

package dataset

import "trigene/internal/bitvec"

// packVector selects the AVX-512 validate-and-pack body: the module's one
// probe, read once, when the package initialises.
var packVector = bitvec.HasAVX512()

// packBlocksAVX512 packs blocks >= 1 steps of 64 genotype bytes of src
// into 16 bytes of dst each and reports whether every byte was 0, 1 or 2;
// where one was not, the bytes it packed into are unspecified. The caller
// has checked both buffers hold that many bytes.
//
//go:noescape
func packBlocksAVX512(dst, src *byte, blocks int) (clean bool)
