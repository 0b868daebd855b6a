package dataset_test

import (
	"bytes"
	"testing"

	"trigene/internal/dataset"
	"trigene/internal/store"
)

// BenchmarkReadRAW reads bench/'s pipeline-cold shape, 640 SNPs x 16384
// samples of PLINK .raw text (21 MB): the reader alone, and the whole of
// what a cold start pays before it can search (parse, validate, pack,
// hash).
func BenchmarkReadRAW(b *testing.B) {
	mx, err := dataset.Generate(dataset.GenConfig{SNPs: 640, Samples: 16384, Seed: 1, MAFMin: 0.3, MAFMax: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	text := dataset.RawText(mx)
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dataset.ReadRAW(bytes.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read+store+hash", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := dataset.ReadRAW(bytes.NewReader(text))
			if err != nil {
				b.Fatal(err)
			}
			st, err := store.New(got)
			if err != nil {
				b.Fatal(err)
			}
			if st.Hash() == "" {
				b.Fatal("empty hash")
			}
		}
	})
}
