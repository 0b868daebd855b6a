package dataset_test

import (
	"bytes"
	"testing"

	"trigene"
	"trigene/internal/bitvec"
	"trigene/internal/dataset"
)

// BenchmarkReadRAW reads bench/'s pipeline-cold shape, 640 SNPs x 16384
// samples of PLINK .raw text (21 MB): the packed sections alone (read),
// what a cold start pays before it can search (read+session+hash: the
// sections adopted by a session's store and hashed as they are), and what
// a caller of trigene.ReadRAW pays (read+matrix: the sections decoded into
// the M x N byte Matrix). Then each per-byte stage of the read alone, over
// the whole file on one goroutine, on each body (body=avx512 skips where
// the build or host has none): decode, the codes of every sample line;
// transpose, every block's staged rows into its chunk; assembly, the
// chunks into the packed sections. MB/s are of the file's text throughout.
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
	stages, err := dataset.RawStages(text)
	if err != nil {
		b.Fatal(err)
	}
	for _, stage := range stages {
		for _, body := range []struct {
			name   string
			vector bool
		}{{"avx512", true}, {"go", false}} {
			b.Run(stage.Name+"/body="+body.name, func(b *testing.B) {
				if body.vector && !bitvec.HasAVX512() {
					b.Skip("no AVX-512 body in this build or on this host")
				}
				b.SetBytes(int64(len(text)))
				for i := 0; i < b.N; i++ {
					stage.Run(body.vector)
				}
			})
		}
	}
}
