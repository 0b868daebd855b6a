package bitvec

import (
	"math/rand"
	"testing"
)

func benchWords(n int) (x, y, z []uint64) {
	r := rand.New(rand.NewSource(1))
	mk := func() []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = r.Uint64()
		}
		return w
	}
	return mk(), mk(), mk()
}

const benchN = 256 // 16384 samples

func BenchmarkPopCount(b *testing.B) {
	x, _, _ := benchWords(benchN)
	b.SetBytes(benchN * 8)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += PopCount(x)
	}
	_ = sink
}

func BenchmarkPopCountAnd3(b *testing.B) {
	x, y, z := benchWords(benchN)
	b.SetBytes(benchN * 8 * 3)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += PopCountAnd3(x, y, z)
	}
	_ = sink
}

func BenchmarkPopCountAnd3Lanes8(b *testing.B) {
	x, y, z := benchWords(benchN)
	b.SetBytes(benchN * 8 * 3)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += PopCountAnd3Lanes8(x, y, z)
	}
	_ = sink
}

func BenchmarkNor(b *testing.B) {
	x, y, _ := benchWords(benchN)
	dst := make([]uint64, benchN)
	b.SetBytes(benchN * 8 * 2)
	for i := 0; i < b.N; i++ {
		Nor(dst, x, y)
	}
}
