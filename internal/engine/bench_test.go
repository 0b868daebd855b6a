package engine

import (
	"fmt"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/obs"
	"trigene/internal/sched"
)

// BenchmarkFusedShapes times the default search (V4F, K2, top-10) on one
// worker at the shapes the repository's benchmark runs its triple kernel
// on — triples-wide, pipeline-cold's stage 2, a cluster-loopback job and
// triples-tall — and reports ns per combination. 17 samples in 32 are
// cases, so at 16384 samples the class planes are 120 and 136 words: one
// default word tile, and one and a bit.
func BenchmarkFusedShapes(b *testing.B) {
	for _, sh := range []struct{ snps, samples int }{{96, 16384}, {64, 16384}, {128, 8192}, {224, 500}} {
		b.Run(fmt.Sprintf("%dx%d", sh.snps, sh.samples), func(b *testing.B) {
			mx := randomMatrix(7, sh.snps, sh.samples)
			for j := 0; j < sh.samples; j++ {
				phen := dataset.Control
				if j%32 < 17 {
					phen = dataset.Case
				}
				mx.SetPhen(j, uint8(phen))
			}
			s, err := New(mx)
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
	o, err := opts.withDefaults(n)
	if err != nil {
		b.Fatal(err)
	}
	rejected := resolveRunMetrics(reg, "pair").rejected.Value()
	b.ReportMetric(float64(rejected)/float64(b.N)/float64(pairGroups(pairs, sched.AutoGrain(pairs, o.Workers), m)), "rejected-share")
}

// pairGroups counts the lane groups a one-worker pair scan of m SNPs
// scores: its cursor claims [0, total) in tiles of grain ranks, and each
// tile's part of a colexicographic j-run is cut into groups of up to
// eight pairs.
func pairGroups(total, grain int64, m int) (groups int64) {
	for lo := int64(0); lo < total; lo += grain {
		hi := min(lo+grain, total)
		i, j := combin.UnrankPair(lo, m)
		for r := lo; r < hi; i, j = 0, j+1 {
			run := min(int64(j-i), hi-r)
			r += run
			groups += (run + contingency.Lanes - 1) / contingency.Lanes
		}
	}
	return groups
}
