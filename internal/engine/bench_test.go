package engine

import (
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/obs"
)

// BenchmarkFusedShapes times the default search (V4F, K2, top-10) on one
// worker at the shapes the repository's benchmark runs its triple kernel
// on — triples-wide, pipeline-cold's stage 2, a cluster-loopback job and
// triples-tall — and reports ns per combination. In the uniform arms every
// genotype is drawn uniformly and 17 samples in 32 are cases, so at 16384
// samples the class planes are 120 and 136 words: one default word tile,
// and one and a bit. The 224x500-maf arm is triples-tall as the benchmark
// generates it (dataset.Generate, minor allele frequencies 0.3–0.5, a
// threshold-planted triple): there K2 gives up on a group of tables after
// about 16 of its 27 rows, against about 26 on uniform genotypes, so it
// is the arm whose scoring share matches the workload's.
func BenchmarkFusedShapes(b *testing.B) {
	shapes := []struct {
		name string
		mx   func() *dataset.Matrix
		snps int
	}{
		{"96x16384", func() *dataset.Matrix { return uniformMatrix(96, 16384) }, 96},
		{"64x16384", func() *dataset.Matrix { return uniformMatrix(64, 16384) }, 64},
		{"128x8192", func() *dataset.Matrix { return uniformMatrix(128, 8192) }, 128},
		{"224x500", func() *dataset.Matrix { return uniformMatrix(224, 500) }, 224},
		{"224x500-maf", func() *dataset.Matrix {
			mx, err := dataset.Generate(dataset.GenConfig{
				SNPs: 224, Samples: 500, Seed: 7, MAFMin: 0.3, MAFMax: 0.5,
				Interaction: &dataset.Interaction{SNPs: [3]int{17, 101, 190}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)},
			})
			if err != nil {
				b.Fatal(err)
			}
			return mx
		}, 224},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			s, err := New(sh.mx())
			if err != nil {
				b.Fatal(err)
			}
			s.Split()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(Options{Workers: 1, TopK: 10}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(combin.Triples(sh.snps)), "ns/combination")
		})
	}
}

// uniformMatrix is BenchmarkFusedShapes' uniform arms' dataset: uniform
// genotypes, 17 samples in 32 cases.
func uniformMatrix(snps, samples int) *dataset.Matrix {
	mx := randomMatrix(7, snps, samples)
	for j := 0; j < samples; j++ {
		phen := dataset.Control
		if j%32 < 17 {
			phen = dataset.Case
		}
		mx.SetPhen(j, uint8(phen))
	}
	return mx
}

// BenchmarkPairScreen times the stage-1 pair screen (RunPairScreen, K2,
// 16 seed pairs) on one worker at the shape of the repository benchmark's
// pipeline-cold: 640 SNPs x 16384 samples with minor allele frequencies
// 0.3-0.5 and a planted triple. It reports ns per pair and the share of
// lane groups of up to eight pairs whose scoring was given up on.
func BenchmarkPairScreen(b *testing.B) {
	const m, n = 640, 16384
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: m, Samples: n, Seed: 1, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &dataset.Interaction{SNPs: [3]int{41, 333, 602}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)},
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(mx)
	if err != nil {
		b.Fatal(err)
	}
	s.Split()
	s.marginals()
	reg := obs.NewRegistry()
	opts := Options{Workers: 1, TopK: 16, Metrics: reg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunPairScreen(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pairs := combin.Pairs(m)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
	rejected := resolveRunMetrics(reg, "pair").rejected.Value()
	b.ReportMetric(float64(rejected)/float64(b.N)/float64(pairGroups(m)), "rejected-share")
}

// pairGroups counts the lane groups a pair scan of m SNPs scores: one per
// SNP z of each block pair (b1, b2) that some SNP of b1 sorts below, all of
// b2's off the diagonal and all but the first on it.
func pairGroups(m int) (groups int64) {
	const bs = contingency.Lanes
	for base2 := 0; base2 < m; base2 += bs {
		lim2 := int64(blockLim(base2, bs, m))
		groups += int64(base2/bs)*lim2 + lim2 - 1
	}
	return groups
}
