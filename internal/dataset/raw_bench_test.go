package dataset_test

import (
	"bytes"
	"testing"

	"trigene"
	"trigene/internal/dataset"
)

// BenchmarkReadRAW reads bench/'s pipeline-cold shape, 640 SNPs x 16384
// samples of PLINK .raw text (21 MB): the packed sections alone (read),
// what a cold start pays before it can search (read+session+hash: the
// sections adopted by a session's store and hashed as they are), and what
// a caller of trigene.ReadRAW pays (read+matrix: the sections decoded into
// the M x N byte Matrix).
func BenchmarkReadRAW(b *testing.B) {
	mx, err := dataset.Generate(dataset.GenConfig{SNPs: 640, Samples: 16384, Seed: 1, MAFMin: 0.3, MAFMax: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	text := dataset.RawText(mx)
	arms := []struct {
		name string
		read func() error
	}{
		{"read", func() error {
			_, err := dataset.ReadRAWPacked(bytes.NewReader(text))
			return err
		}},
		{"read+session+hash", func() error {
			sess, err := trigene.ReadRAWSession(bytes.NewReader(text))
			if err == nil {
				sess.DatasetHash()
			}
			return err
		}},
		{"read+matrix", func() error {
			_, err := dataset.ReadRAW(bytes.NewReader(text))
			return err
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := arm.read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
