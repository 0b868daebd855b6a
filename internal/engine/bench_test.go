package engine

import (
	"fmt"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/dataset"
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
