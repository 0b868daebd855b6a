package dataset_test

import (
	"testing"

	"trigene/internal/dataset"
)

// The two lazy encodes of a cold start at bench/'s pipeline-cold shape,
// 640 SNPs x 16384 samples (10.5 MB of genotypes): MB/s is genotype
// bytes read. Run with -cpu 1,2 to see what sharing SNPs out gives.
func benchmarkEncode(b *testing.B, encode func(*dataset.Matrix)) {
	mx, err := dataset.Generate(dataset.GenConfig{SNPs: 640, Samples: 16384, Seed: 1, MAFMin: 0.3, MAFMax: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(mx.SNPs() * mx.Samples()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode(mx)
	}
}

func BenchmarkSplitBinarize(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) { dataset.SplitBinarize(mx) })
}

func BenchmarkBinarize(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) { dataset.Binarize(mx) })
}

func BenchmarkBuildClassPlanes(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) { dataset.BuildClassPlanes(mx) })
}

// BenchmarkValidate is the range check store.New runs over the same
// matrix.
func BenchmarkValidate(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) {
		if err := mx.Validate(); err != nil {
			b.Fatal(err)
		}
	})
}
