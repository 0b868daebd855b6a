// packed_store demonstrates the encoded-dataset store lifecycle:
// generate a dataset, write it as a packed .tpack file (2-bit genotypes
// under their content hash), reopen it (memory-mapped where the
// platform allows) and search it without a re-parse — the first search
// builds its bit-plane encoding from the packed sections — with
// bit-exact results and a stable content hash.
//
// Run with: go run ./examples/packed_store
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"trigene"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// A dataset with a planted 3-way interaction at (4, 11, 19).
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 48, Samples: 1200, Seed: 7, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{4, 11, 19},
			Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
		},
	})
	if err != nil {
		return err
	}

	// Path 1: the ordinary session. Its first search builds the needed
	// bit-plane encoding; WritePack then persists the packed sections.
	sess, err := trigene.NewSession(mx)
	if err != nil {
		return err
	}
	warm, err := sess.Search(ctx, trigene.WithTopK(3))
	if err != nil {
		return err
	}
	fmt.Printf("fresh session:  best %v (%s=%.4f), hash %.12s…\n",
		warm.Best.SNPs, warm.Objective, warm.Best.Score, sess.DatasetHash())

	dir, err := os.MkdirTemp("", "packed-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "planted.tpack")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sess.WritePack(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d bytes\n", filepath.Base(path), fi.Size())

	// Path 2: reopen the pack. OpenPack memory-maps the packed sections,
	// so the session is ready in milliseconds — the path a cluster worker
	// or a CLI takes on a warm cache.
	start := time.Now()
	packed, err := trigene.OpenPack(path)
	if err != nil {
		return err
	}
	defer packed.Close()
	loadDur := time.Since(start)
	rep, err := packed.Search(ctx, trigene.WithTopK(3))
	if err != nil {
		return err
	}
	fmt.Printf("packed session: best %v (%s=%.4f), hash %.12s…\n",
		rep.Best.SNPs, rep.Objective, rep.Best.Score, packed.DatasetHash())
	fmt.Printf("pack opened in %v (mmap=%v); the search built its encoding from the packed sections\n",
		loadDur.Round(time.Microsecond), packed.PackMapped())

	if rep.Best.Score != warm.Best.Score || packed.DatasetHash() != sess.DatasetHash() {
		return fmt.Errorf("pack round-trip changed the result")
	}
	fmt.Println("bit-exact across the pack round-trip ✓")
	return nil
}
