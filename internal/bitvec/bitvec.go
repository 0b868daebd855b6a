// Package bitvec provides bit-packed sample vectors and the word-parallel
// Boolean/population-count kernels that underpin epistasis detection.
//
// The paper stores genotype presence/absence as one bit per sample and
// drives the hot loop with LOAD/NOR/AND/POPCNT instructions, vectorized
// with AVX or AVX-512 intrinsics where available. Go has no vector
// intrinsics, so this package substitutes:
//
//   - 64-bit machine words (two of the paper's 32-bit units per word) as
//     the scalar primitive, counted with math/bits.OnesCount64;
//   - unrolled multi-word "lane" kernels (4 lanes ~ 256-bit AVX,
//     8 lanes ~ 512-bit AVX-512) that expose the same instruction-level
//     parallelism a SIMD implementation would.
//
// All vectors maintain the invariant that bits at positions >= Len() are
// zero. Kernels that derive a plane with NOR (which would set those tail
// bits) either mask the final word or let the caller apply the known
// padding correction; see package contingency.
package bitvec

import (
	"fmt"
	"math/bits"
)

// WordBits is the number of sample bits packed into one storage word.
const WordBits = 64

// Vector is a fixed-length bit vector packed into 64-bit words.
// The zero value is an empty vector of length 0.
type Vector struct {
	n int
	w []uint64
}

// New returns a zeroed Vector holding n bits.
func New(n int) *Vector {
	if n < 0 {
		// Unreachable: the module's product code builds no Vector with
		// New; its tests do, at lengths they count themselves.
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, w: make([]uint64, WordsFor(n))}
}

// FromWords wraps the given words as a Vector of length n. The slice is
// used directly (not copied). Tail bits beyond n must already be zero;
// FromWords panics if they are not, since every kernel relies on that
// invariant.
func FromWords(n int, w []uint64) *Vector {
	if len(w) != WordsFor(n) {
		// Unreachable: the one caller, dataset.Packed.PhenVector, makes
		// its words with WordsFor(N).
		panic(fmt.Sprintf("bitvec: %d words cannot hold exactly %d bits", len(w), n))
	}
	if m := TailMask(n); m != ^uint64(0) && len(w) > 0 && w[len(w)-1]&^m != 0 {
		// Unreachable from a dataset file or a .tpack: PhenVector copies
		// the phenotype section of a Packed that either store.NewPacked
		// took — its checkSections refuses a bit past sample N, for every
		// .tpack, binary and .raw session — or dataset.Pack made from a
		// Matrix, which sets one bit per sample.
		panic("bitvec: nonzero tail bits")
	}
	return &Vector{n: n, w: w}
}

// WordsFor returns the number of 64-bit words needed to hold n bits.
func WordsFor(n int) int { return (n + WordBits - 1) / WordBits }

// TailMask returns a mask with ones at every valid bit position of the
// final word of an n-bit vector. For n that is a multiple of WordBits
// (including n == 0) it returns all ones.
func TailMask(n int) uint64 {
	r := n % WordBits
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << r) - 1
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing words. Mutating them is allowed as long as
// the tail-zero invariant is preserved.
func (v *Vector) Words() []uint64 { return v.w }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.w[i/WordBits] |= 1 << (uint(i) % WordBits)
}

// Get reports whether bit i is 1.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.w[i/WordBits]>>(uint(i)%WordBits)&1 != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		// Unreachable: Set and Get have one product caller, String, which
		// walks [0, n); tests index what they built.
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// OnesCount returns the number of set bits.
func (v *Vector) OnesCount() int { return PopCount(v.w) }

// String renders the vector as a 0/1 string, bit 0 first. Intended for
// tests and small examples only.
func (v *Vector) String() string {
	b := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// PopCount returns the total number of set bits across the words.
func PopCount(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}
