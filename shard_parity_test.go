package trigene_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"trigene"
)

// Shard/merge parity is the scheduler's core guarantee: a shard is a
// sub-range of the tile space with bit-exact MergeReports semantics,
// on every backend. For each backend and every order it supports,
// three executions must produce identical Reports (candidates,
// scores, tie-breaks):
//
//   - a full run,
//   - a 2-shard run merged with MergeReports,
//   - a work-stealing run (a different dynamic consumer count — and,
//     on hetero, a different realized CPU/GPU split).
func TestShardMergeParity(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
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
				full, err := s.Search(ctx, base...)
				if err != nil {
					t.Fatal(err)
				}
				if len(full.TopK) != 6 {
					t.Fatalf("full run returned %d candidates", len(full.TopK))
				}

				// 2-shard run, merged.
				var parts []*trigene.Report
				var combos int64
				for i := 0; i < 2; i++ {
					rep, err := s.Search(ctx, append(base, trigene.WithShard(i, 2))...)
					if err != nil {
						t.Fatalf("shard %d: %v", i, err)
					}
					if rep.Shard == nil || rep.Shard.Index != i || rep.Shard.Count != 2 || rep.Shard.Space == "" {
						t.Fatalf("shard %d info: %+v", i, rep.Shard)
					}
					combos += rep.Combinations
					parts = append(parts, rep)
				}
				if combos != full.Combinations {
					t.Errorf("shards cover %d combinations, full %d", combos, full.Combinations)
				}
				merged, err := trigene.MergeReports(parts...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "2-shard merge", merged, full)

				// Work-stealing run: a different dynamic consumer count
				// claims tiles in a different interleaving; the result must
				// not change.
				ws, err := s.Search(ctx, append(base, trigene.WithWorkers(3))...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "work-stealing", ws, full)

				// Autotuned paths: the planner may repick the approach,
				// regrain the scheduler and reseed the hetero split, but
				// single-node, 2-shard-merged and work-stealing Reports
				// must all stay bit-exact with the untuned full run — and
				// carry the decision trace.
				tuned, err := s.Search(ctx, append(base, trigene.WithAutoTune())...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "autotuned", tuned, full)
				if tuned.Plan == nil || tuned.Plan.Backend != tuned.Backend {
					t.Errorf("autotuned plan trace: %+v (backend %q)", tuned.Plan, tuned.Backend)
				}
				var tunedParts []*trigene.Report
				for i := 0; i < 2; i++ {
					rep, err := s.Search(ctx, append(base, trigene.WithShard(i, 2), trigene.WithAutoTune())...)
					if err != nil {
						t.Fatalf("autotuned shard %d: %v", i, err)
					}
					tunedParts = append(tunedParts, rep)
				}
				tunedMerged, err := trigene.MergeReports(tunedParts...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "autotuned 2-shard merge", tunedMerged, full)
				if tunedMerged.Plan == nil {
					t.Error("merge dropped the autotuned shards' plan trace")
				}
				tunedWS, err := s.Search(ctx, append(base, trigene.WithWorkers(3), trigene.WithAutoTune())...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "autotuned work-stealing", tunedWS, full)
			})
		}
	}
}

// reportsEqual asserts two Reports carry identical ranked candidates
// and cover the same number of combinations.
func reportsEqual(t *testing.T, label string, got, want *trigene.Report) {
	t.Helper()
	if got.Combinations != want.Combinations {
		t.Errorf("%s: %d combinations, want %d", label, got.Combinations, want.Combinations)
	}
	if len(got.TopK) != len(want.TopK) {
		t.Fatalf("%s: top-K %d entries, want %d", label, len(got.TopK), len(want.TopK))
	}
	for i := range want.TopK {
		wantSNPs(t, got.TopK[i].SNPs, want.TopK[i].SNPs...)
		if got.TopK[i].Score != want.TopK[i].Score {
			t.Errorf("%s: top-%d score %.12f != %.12f", label, i+1, got.TopK[i].Score, want.TopK[i].Score)
		}
	}
	wantSNPs(t, got.Best.SNPs, want.Best.SNPs...)
	if got.Best.Score != want.Best.Score {
		t.Errorf("%s: best score %.12f != %.12f", label, got.Best.Score, want.Best.Score)
	}
}

// TestShortPlaneShardMergeParity: the fused approaches' loop cuts
// whatever range of block triples it is given into runs of eight x SNPs
// and claims several block triples at a time. However the space is
// sharded — one shard, three, or seven, whose bounds fall in the middle
// of runs — the merged Report must be the unsharded one bit for bit, and
// that one must be what the simulated GPU's split kernel (V2, one table
// per combination) reports, under every objective, on the host's bodies
// (V4F) and the Go ones (V3F). 21 SNPs
// leave a last block of one; 333 samples leave both classes ragged and
// inside one word tile, 20000 put at least one class past the default
// tile, so its lane tables are summed over several.
func TestShortPlaneShardMergeParity(t *testing.T) {
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	for _, samples := range []int{333, 20000} {
		mx, err := trigene.Generate(trigene.GenConfig{SNPs: 21, Samples: samples, Seed: 19, MAFMin: 0.2, MAFMax: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		s, err := trigene.NewSession(mx)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, objective := range []string{"k2", "mi", "gini"} {
			flat, err := s.Search(ctx, trigene.WithObjective(objective), trigene.WithTopK(9),
				trigene.WithBackend(trigene.GPUSim(gn1)), trigene.WithApproach(trigene.V2Split))
			if err != nil {
				t.Fatal(err)
			}
			for _, approach := range []trigene.Approach{trigene.V3Fused, trigene.V4Fused} {
				base := []trigene.Option{trigene.WithObjective(objective), trigene.WithTopK(9), trigene.WithApproach(approach)}
				for _, count := range []int{1, 3, 7} {
					var parts []*trigene.Report
					for i := 0; i < count; i++ {
						rep, err := s.Search(ctx, append(base, trigene.WithShard(i, count))...)
						if err != nil {
							t.Fatalf("%d samples, %s %v shard %d/%d: %v", samples, objective, approach, i, count, err)
						}
						if rep.Shard == nil || rep.Shard.Space != trigene.ShardSpaceFusedBlocks {
							t.Fatalf("%d samples, %s %v shard %d/%d info: %+v", samples, objective, approach, i, count, rep.Shard)
						}
						parts = append(parts, rep)
					}
					merged, err := trigene.MergeReports(parts...)
					if err != nil {
						t.Fatal(err)
					}
					reportsEqual(t, fmt.Sprintf("%d samples, %s %v, %d shards vs flat", samples, objective, approach, count), merged, flat)
				}
			}
		}
	}
}

// TestSearchShardAllocationBound: a cluster tile is one
// Session.Search(WithShard(i, 512)), so what a call allocates is paid 512
// times a job. Once the arenas are pooled and K2's ln(n!) table exists
// (score.NewLnFact builds it once per process, not once per call: it was
// 64 of the 76 KB a call used to allocate) a call is its options, its
// workers' headers and its Report: the median call must stay under
// 16 KB. The median, because sync.Pool drops arenas at random under the
// race detector and after a collection.
func TestSearchShardAllocationBound(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 64, Samples: 8192, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	s, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const shards, calls = 512, 33
	search := func(i int) {
		if _, err := s.Search(ctx, trigene.WithTopK(10), trigene.WithWorkers(1), trigene.WithShard(i, shards)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		search(i) // warm: split form, arena, table
	}
	per := make([]uint64, calls)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		search(8 + i)
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(per, func(a, b int) bool { return per[a] < per[b] })
	if median := per[calls/2]; median > 16<<10 {
		t.Errorf("a warm Search(WithShard(i, %d)) allocates %d bytes (median of %d calls, range %d–%d), want at most %d",
			shards, median, calls, per[0], per[calls-1], 16<<10)
	} else {
		t.Logf("warm Search(WithShard(i, %d)): median %d bytes, range %d–%d", shards, median, per[0], per[calls-1])
	}
}

// TestSessionShardEmptyEverywhere: shards beyond the space report no
// candidates on every backend (the GPU simulator must not fall back
// to the full space, and hetero must not spin up either half).
func TestSessionShardEmptyEverywhere(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 6, Samples: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	// C(6,3) = 20, so shard 20 of 21 is empty.
	for _, b := range []trigene.Backend{trigene.CPU(), trigene.GPUSim(gn1), trigene.Baseline(), trigene.Hetero()} {
		rep, err := s.Search(ctx, trigene.WithBackend(b), trigene.WithShard(20, 21))
		if err != nil {
			t.Fatalf("%s empty shard: %v", b.Name(), err)
		}
		if len(rep.TopK) != 0 || rep.Best.SNPs != nil || rep.Combinations != 0 {
			t.Errorf("%s empty shard not empty: topk=%d best=%v combos=%d",
				b.Name(), len(rep.TopK), rep.Best.SNPs, rep.Combinations)
		}
		if rep.Shard == nil || rep.Shard.Lo != rep.Shard.Hi {
			t.Errorf("%s empty shard info: %+v", b.Name(), rep.Shard)
		}
	}
}
