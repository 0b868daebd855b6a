package contingency

import (
	"fmt"
	"math/rand"
	"testing"

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

func BenchmarkBuildSplit(b *testing.B) {
	spl := dataset.SplitBinarize(randomMatrix(3, 8, 16384))
	for i := 0; i < b.N; i++ {
		_ = BuildSplit(spl, 1, 4, 7)
	}
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
// 256-word planes of a 16384-sample class, reported per pair, in two
// arms. l1: one PairLanes call per iteration, the eight pairs of one lane
// group against one y, over nine SNPs whose planes stay cached. stream:
// the stage-1 screen scan's walk, colexicographic over 640 SNPs (2.6 MB of
// planes, more than an L2), each y met by every x below it eight at a
// time, so that the x planes stream past one y: one lane group per
// iteration, the walk wrapping round. If the stream arm costs what the
// l1 arm does per pair, the scan is bound by its counting, not by
// streaming its x planes.
func BenchmarkPairScan(b *testing.B) {
	for _, m := range []int{Lanes + 1, 640} {
		snps := make([][2][]uint64, m)
		for k := range snps {
			p := benchPlanes(benchWords) // the same words for every SNP, at its own address
			for w := range p[1] {
				p[1][w] &^= p[0][w]
			}
			snps[k] = [2][]uint64{p[0], p[1]}
		}
		data, marg := classPlanes(0, benchWords, snps)
		arm := "l1"
		if m > Lanes+1 {
			arm = fmt.Sprintf("stream-%d", m)
		}
		for _, body := range bodies {
			b.Run(arm+"/"+body.name, func(b *testing.B) {
				skipWithoutAssembly(b, body.oracle)
				var lt LaneTable
				pairs := 0
				x, y := 0, Lanes
				if m > Lanes+1 {
					y = 1
				}
				for i := 0; i < b.N; i++ {
					valid := min(Lanes, y-x)
					pairLanes(&lt, data, benchWords, x, valid, y, marg, benchWords*64, !body.oracle)
					pairs += valid
					if m == Lanes+1 {
						continue
					}
					if x += valid; x == y {
						x, y = 0, y+1
						if y == m {
							y = 1
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
			})
		}
	}
}
