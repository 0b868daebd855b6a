package dataset_test

import (
	"testing"

	"trigene/internal/dataset"
)

// The lazy encodes of a cold start at bench/'s pipeline-cold shape, 640
// SNPs x 16384 samples (10.5 MB of genotypes): MB/s is genotypes encoded.
// Each encoder runs from the matrix (from=matrix: it packs the matrix
// first, as a matrix-born store does) and from the packed sections a .raw
// read or a .tpack hands the store (from=packed). Run with -cpu 1,2 to
// see what sharing SNPs out gives.
func benchmarkEncode(b *testing.B, fromMatrix func(*dataset.Matrix), fromPacked func(*dataset.Packed)) {
	mx, err := dataset.Generate(dataset.GenConfig{SNPs: 640, Samples: 16384, Seed: 1, MAFMin: 0.3, MAFMax: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	p := dataset.Pack(mx)
	run := func(b *testing.B, encode func()) {
		b.SetBytes(int64(mx.SNPs() * mx.Samples()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encode()
		}
	}
	b.Run("from=matrix", func(b *testing.B) { run(b, func() { fromMatrix(mx) }) })
	if fromPacked != nil {
		b.Run("from=packed", func(b *testing.B) { run(b, func() { fromPacked(p) }) })
	}
}

func BenchmarkSplitBinarize(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) { dataset.SplitBinarize(mx) }, func(p *dataset.Packed) { p.Split() })
}

func BenchmarkBinarize(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) { dataset.Binarize(mx) }, func(p *dataset.Packed) { p.Binarize() })
}

func BenchmarkBuildClassPlanes(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) { dataset.BuildClassPlanes(mx) }, func(p *dataset.Packed) { p.ClassPlanes() })
}

// BenchmarkValidate is the range check store.New runs over the same
// matrix.
func BenchmarkValidate(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) {
		if err := mx.Validate(); err != nil {
			b.Fatal(err)
		}
	}, nil)
}

// BenchmarkPack is the packing a matrix-born store does once, for its
// hash and its encodings.
func BenchmarkPack(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) { dataset.Pack(mx) }, nil)
}

// BenchmarkHashMatrix is what a cluster client pays to name a Matrix: the
// validate-and-pack pass streamed into SHA-256.
func BenchmarkHashMatrix(b *testing.B) {
	benchmarkEncode(b, func(mx *dataset.Matrix) {
		if _, err := dataset.HashMatrix(mx); err != nil {
			b.Fatal(err)
		}
	}, nil)
}
