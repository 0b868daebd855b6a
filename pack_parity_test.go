package trigene_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"trigene"
)

// TestPackParityAllBackends is the store's end-to-end guarantee: a
// session loaded from a .tpack — over the wire (ReadPack) or
// memory-mapped from disk (OpenPack) — produces bit-exact Reports on
// every backend and keeps the dataset's content hash, including under
// sharding and MergeReports.
func TestPackParityAllBackends(t *testing.T) {
	orig := plantedSession(t)
	ctx := context.Background()

	var buf bytes.Buffer
	if err := orig.WritePack(&buf); err != nil {
		t.Fatal(err)
	}
	wire, err := trigene.ReadPack(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.tpack")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := trigene.OpenPack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	if wire.DatasetHash() != orig.DatasetHash() || mapped.DatasetHash() != orig.DatasetHash() {
		t.Fatalf("hash not preserved: orig %s wire %s mapped %s",
			orig.DatasetHash(), wire.DatasetHash(), mapped.DatasetHash())
	}
	if wire.SNPs() != orig.SNPs() || wire.Samples() != orig.Samples() {
		t.Fatalf("wire dims %dx%d != %dx%d", wire.SNPs(), wire.Samples(), orig.SNPs(), orig.Samples())
	}

	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		orders []int
		opts   []trigene.Option
	}{
		{"cpu", []int{2, 3, 4}, nil},
		{"cpu-V3F", []int{3}, []trigene.Option{trigene.WithApproach(trigene.V3Fused)}},
		{"cpu-V4F", []int{3}, []trigene.Option{trigene.WithApproach(trigene.V4Fused)}},
		{"gpusim", []int{3}, []trigene.Option{trigene.WithBackend(trigene.GPUSim(gn1))}},
		{"baseline", []int{3}, []trigene.Option{trigene.WithBackend(trigene.Baseline())}},
		{"hetero", []int{3}, []trigene.Option{trigene.WithBackend(trigene.Hetero())}},
	}
	for _, tc := range cases {
		for _, order := range tc.orders {
			t.Run(fmt.Sprintf("%s/order%d", tc.name, order), func(t *testing.T) {
				base := append([]trigene.Option{trigene.WithOrder(order), trigene.WithTopK(6)}, tc.opts...)
				full, err := orig.Search(ctx, base...)
				if err != nil {
					t.Fatal(err)
				}
				fromWire, err := wire.Search(ctx, base...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "wire pack", fromWire, full)
				fromMap, err := mapped.Search(ctx, base...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "mmap pack", fromMap, full)

				// Shard/merge parity holds on the mapped session too.
				var parts []*trigene.Report
				for i := 0; i < 2; i++ {
					rep, err := mapped.Search(ctx, append(base, trigene.WithShard(i, 2))...)
					if err != nil {
						t.Fatalf("mapped shard %d: %v", i, err)
					}
					parts = append(parts, rep)
				}
				merged, err := trigene.MergeReports(parts...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "mmap 2-shard merge", merged, full)
			})
		}
	}

	// The permutation test decodes the matrix lazily from the pack and
	// must agree with the original session's.
	best, err := mapped.Search(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pOrig, err := orig.PermutationTest(ctx, best.Best.SNPs, trigene.WithPermutations(50), trigene.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	pMap, err := mapped.PermutationTest(ctx, best.Best.SNPs, trigene.WithPermutations(50), trigene.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if pOrig.PValue != pMap.PValue {
		t.Fatalf("permutation p-value %.6f != %.6f from pack", pMap.PValue, pOrig.PValue)
	}
}

// TestPackWithOverlappingPlanesRefused corrupts a pack the way no
// checksum catches — one sample set in both stored split planes of a
// SNP, section CRC recomputed — and requires both public loaders to
// refuse it with the typed error instead of handing the fused kernel
// planes its 18+9 cell derivation cannot survive.
func TestPackWithOverlappingPlanesRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := plantedSession(t).WritePack(&buf); err != nil {
		t.Fatal(err)
	}
	// .tpack v1: 72-byte header, 24-byte section entries {id, crc32c,
	// off, len}; section 4 is the class-0 split planes, (snp*2+g)*Words.
	bad := buf.Bytes()
	entry := bad[72+3*24:]
	off, ln := binary.LittleEndian.Uint64(entry[8:]), binary.LittleEndian.Uint64(entry[16:])
	words := ln / 8 / uint64(2*binary.LittleEndian.Uint32(bad[16:]))
	bad[off] |= 1
	bad[off+words*8] |= 1
	binary.LittleEndian.PutUint32(entry[4:], crc32.Checksum(bad[off:off+ln], crc32.MakeTable(crc32.Castagnoli)))

	path := filepath.Join(t.TempDir(), "overlap.tpack")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, readErr := trigene.ReadPack(bytes.NewReader(bad))
	_, openErr := trigene.OpenPack(path)
	for loader, err := range map[string]error{"ReadPack": readErr, "OpenPack": openErr} {
		var overlap *trigene.PlaneOverlapError
		if !errors.As(err, &overlap) {
			t.Errorf("%s returned %v, want a *trigene.PlaneOverlapError", loader, err)
		}
	}
}
