package contingency

import (
	"fmt"
	"math/rand"
	"testing"

	"trigene/internal/bitvec"
	"trigene/internal/dataset"
)

func benchPlanes(words int) [6][]uint64 {
	r := rand.New(rand.NewSource(2))
	var p [6][]uint64
	for i := range p {
		p[i] = make([]uint64, words)
		for j := range p[i] {
			p[i][j] = r.Uint64()
		}
	}
	return p
}

// One 16384-sample class pass per iteration, matching the paper's
// figure workloads.
const benchWords = 256

func BenchmarkAccumulateSplitScalar(b *testing.B) {
	p := benchPlanes(benchWords)
	b.SetBytes(benchWords * 8 * 6)
	var ft [Cells]int32
	for i := 0; i < b.N; i++ {
		AccumulateSplit(&ft, p[0], p[1], p[2], p[3], p[4], p[5])
	}
}

func BenchmarkAccumulateSplitLanes8(b *testing.B) {
	p := benchPlanes(benchWords)
	b.SetBytes(benchWords * 8 * 6)
	var ft [Cells]int32
	for i := 0; i < b.N; i++ {
		AccumulateSplitLanes8(&ft, p[0], p[1], p[2], p[3], p[4], p[5])
	}
}

func BenchmarkBuildNaiveVsSplit(b *testing.B) {
	mx := randomMatrix(3, 8, 16384)
	bin := dataset.Binarize(mx)
	spl := dataset.SplitBinarize(mx)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = BuildNaive(bin, 1, 4, 7)
		}
	})
	b.Run("split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = BuildSplit(spl, 1, 4, 7)
		}
	})
}

// BenchmarkPairBlock times the fused primitive's two halves on both
// bodies: a default-size tile (120 words), one vector, and the 4-word
// class planes of a 500-sample dataset, which always take the Go loop.
func BenchmarkPairBlock(b *testing.B) {
	for _, words := range []int{120, 8, 4} {
		p := benchPlanes(words)
		for i := 1; i < 6; i += 2 {
			for w := range p[i] {
				p[i][w] &^= p[i-1][w]
			}
		}
		for _, body := range bodies {
			var blk PairBlock
			blk.Init(words, body.oracle)
			blk.Build(p[2], p[3], p[4], p[5])
			name := fmt.Sprintf("%dw/%s", words, body.name)
			b.Run("build/"+name, func(b *testing.B) {
				skipWithoutAssembly(b, body.oracle)
				for i := 0; i < b.N; i++ {
					blk.Build(p[2], p[3], p[4], p[5])
				}
			})
			b.Run("accumulate/"+name, func(b *testing.B) {
				skipWithoutAssembly(b, body.oracle)
				var ft [Cells]int32
				for i := 0; i < b.N; i++ {
					blk.Accumulate(&ft, p[0], p[1])
				}
			})
		}
	}
}

// BenchmarkPairScan times the pair primitive on both bodies over the
// 256-word planes of a 16384-sample class: one BuildPair per iteration,
// the unit of the stage-1 screen scan.
func BenchmarkPairScan(b *testing.B) {
	p := benchPlanes(benchWords)
	for w := range p[1] {
		p[1][w] &^= p[0][w]
		p[3][w] &^= p[2][w]
	}
	var xn, yn [2]int32
	for g := 0; g < 2; g++ {
		xn[g] = int32(bitvec.PopCount(p[g]))
		yn[g] = int32(bitvec.PopCount(p[2+g]))
	}
	for _, body := range bodies {
		b.Run(body.name, func(b *testing.B) {
			skipWithoutAssembly(b, body.oracle)
			b.SetBytes(benchWords * 8 * 4)
			var ft [Cells]int32
			for i := 0; i < b.N; i++ {
				buildPair(&ft, p[0], p[1], p[2], p[3], xn, yn, benchWords*64, !body.oracle)
			}
		})
	}
}
