package trigene_test

import (
	"bytes"
	"context"
	"fmt"
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

// TestVersion1PackSearchesItsGenotypes: a format version 1 pack whose
// stored bin and split0 planes were swapped, with their CRCs recomputed
// (internal/store/testdata/tampered_v1.tpack), names the genuine content
// hash, so nothing but its genotypes may be searched. Loaded with
// ReadPack and with OpenPack, its searches on every path that reads a
// plane form and its permutation tests equal those of a session over
// the matrix it decodes to, bit for bit.
func TestVersion1PackSearchesItsGenotypes(t *testing.T) {
	path := filepath.Join("internal", "store", "testdata", "tampered_v1.tpack")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	read, err := trigene.ReadPack(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	opened, err := trigene.OpenPack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	ref, err := trigene.NewSession(read.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	candidates := [][]int{{0, 5, 9}, {2, 11}, {1, 7, 13, 22}}
	permOpts := []trigene.Option{trigene.WithPermutations(100), trigene.WithSeed(3)}
	wantPerm, err := ref.PermutationTestAll(ctx, candidates, permOpts...)
	if err != nil {
		t.Fatal(err)
	}
	for loader, s := range map[string]*trigene.Session{"ReadPack": read, "OpenPack": opened} {
		if s.DatasetHash() != ref.DatasetHash() {
			t.Errorf("%s: hash %s, matrix session %s", loader, s.DatasetHash(), ref.DatasetHash())
		}
		for name, opts := range map[string][]trigene.Option{
			"cpu":       nil,
			"cpu-V3F":   {trigene.WithApproach(trigene.V3Fused)},
			"pairs":     {trigene.WithOrder(2)},
			"gpusim-V1": {trigene.WithBackend(trigene.GPUSim(gn1)), trigene.WithApproach(trigene.V1Naive)},
			"baseline":  {trigene.WithBackend(trigene.Baseline())},
		} {
			opts = append([]trigene.Option{trigene.WithTopK(5)}, opts...)
			want, err := ref.Search(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Search(ctx, opts...)
			if err != nil {
				t.Fatalf("%s %s: %v", loader, name, err)
			}
			reportsEqual(t, loader+" "+name, got, want)
		}
		got, err := s.PermutationTestAll(ctx, candidates, permOpts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range candidates {
			if *got[i] != *wantPerm[i] {
				t.Errorf("%s: candidate %v: %+v, matrix session %+v", loader, candidates[i], *got[i], *wantPerm[i])
			}
		}
	}
}
