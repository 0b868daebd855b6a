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

// BenchmarkBuildSplitK times the split builder at orders 3 to 5 on 500,
// 2048 and 16384 samples, reported per table (both classes).
func BenchmarkBuildSplitK(b *testing.B) {
	for _, n := range []int{500, 2048, 16384} {
		spl := dataset.SplitBinarize(randomMatrix(3, 8, n))
		for _, snps := range [][]int{{1, 4, 7}, {0, 2, 4, 7}, {0, 1, 3, 5, 7}} {
			cells := CellsK(len(snps))
			ctrl, cases := make([]int32, cells), make([]int32, cells)
			b.Run(fmt.Sprintf("order%d/n%d", len(snps), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(ctrl)
					clear(cases)
					if err := BuildSplitK(spl, snps, ctrl, cases); err != nil {
						b.Fatal(err)
					}
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
