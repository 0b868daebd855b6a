package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randWords(r *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = r.Uint64()
	}
	return w
}

// refPopCountAnd3 is a bit-by-bit reference implementation.
func refPopCountAnd3(x, y, z []uint64) int {
	c := 0
	for i := range z {
		for b := 0; b < 64; b++ {
			m := uint64(1) << b
			if x[i]&m != 0 && y[i]&m != 0 && z[i]&m != 0 {
				c++
			}
		}
	}
	return c
}

func TestPopCountKernelsAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33} {
		x, y, z := randWords(r, n), randWords(r, n), randWords(r, n)
		want := refPopCountAnd3(x, y, z)
		if got := PopCountAnd3(x, y, z); got != want {
			t.Errorf("n=%d PopCountAnd3 = %d, want %d", n, got, want)
		}
		if got := PopCountAnd3Lanes8(x, y, z); got != want {
			t.Errorf("n=%d PopCountAnd3Lanes8 = %d, want %d", n, got, want)
		}
	}
}

func TestNorKernel(t *testing.T) {
	x := []uint64{0xF0F0, 0}
	y := []uint64{0x0F0F, ^uint64(0)}
	dst := make([]uint64, 2)
	Nor(dst, x, y)
	if dst[0] != ^uint64(0xFFFF) {
		t.Errorf("Nor word0 = %x", dst[0])
	}
	if dst[1] != 0 {
		t.Errorf("Nor word1 = %x", dst[1])
	}
}

// Property: kernels agree with each other for arbitrary word content.
func TestKernelEquivalenceProperty(t *testing.T) {
	f := func(x, y, z []uint64) bool {
		n := min3(len(x), len(y), len(z))
		x, y, z = x[:n], y[:n], z[:n]
		a := PopCountAnd3(x, y, z)
		return a == PopCountAnd3Lanes8(x, y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the 27-cell decomposition identity. For any disjoint planes,
// summing AND3 popcounts over all genotype combinations counts each
// sample exactly once.
func TestTwentySevenCellPartitionProperty(t *testing.T) {
	f := func(seed int64, wordsRaw uint8) bool {
		nw := int(wordsRaw%6) + 1
		r := rand.New(rand.NewSource(seed))
		mk := func() [3][]uint64 {
			var p [3][]uint64
			for g := range p {
				p[g] = make([]uint64, nw)
			}
			for w := 0; w < nw; w++ {
				for b := 0; b < 64; b++ {
					p[r.Intn(3)][w] |= 1 << b
				}
			}
			return p
		}
		x, y, z := mk(), mk(), mk()
		total := 0
		for gx := 0; gx < 3; gx++ {
			for gy := 0; gy < 3; gy++ {
				for gz := 0; gz < 3; gz++ {
					total += PopCountAnd3(x[gx], y[gy], z[gz])
				}
			}
		}
		return total == nw*64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
