package trigene_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"trigene"
	"trigene/internal/combin"
	"trigene/internal/obs"
	"trigene/internal/sched"
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

// TestMergeRejectsMixedShardSpaces: a rank shard and a block-triple
// shard of the same (index, count) cover different triples; merging
// them must fail loudly instead of silently mis-unioning — the trap
// being running one shard of a search on another backend.
func TestMergeRejectsMixedShardSpaces(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	gpu := trigene.WithBackend(trigene.GPUSim(gn1))
	ranks, err := s.Search(ctx, gpu, trigene.WithShard(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := s.Search(ctx, trigene.WithApproach(trigene.V4Fused), trigene.WithShard(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ranks.Shard.Space == blocks.Shard.Space {
		t.Fatalf("test setup: both shards sliced %q", ranks.Shard.Space)
	}
	if _, err := trigene.MergeReports(ranks, blocks); err == nil {
		t.Error("merge of mixed shard spaces accepted")
	}
	// Same-space shards still merge.
	other, err := s.Search(ctx, gpu, trigene.WithShard(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trigene.MergeReports(ranks, other); err != nil {
		t.Errorf("same-space merge failed: %v", err)
	}

	// At order 2 the CPU slices block pairs; a shard of the same (index,
	// count) over pair ranks, as releases before the block walk cut it,
	// covers other pairs.
	var pairs []*trigene.Report
	for i := 0; i < 2; i++ {
		rep, err := s.Search(ctx, trigene.WithOrder(2), trigene.WithShard(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shard.Space != "block-pairs-bs8" {
			t.Fatalf("order-2 shard %d sliced %q", i, rep.Shard.Space)
		}
		pairs = append(pairs, rep)
	}
	legacy := *pairs[1]
	sh := *legacy.Shard
	sh.Space = trigene.ShardSpaceRanks
	legacy.Shard = &sh
	if _, err := trigene.MergeReports(pairs[0], &legacy); err == nil {
		t.Error("merged a block-pairs-bs8 shard with a combination-ranks one")
	}
	if _, err := trigene.MergeReports(pairs...); err != nil {
		t.Errorf("block-pair shards failed to merge: %v", err)
	}
}

// TestPairShardSetsMergeToTheSearch: order 2 walks block pairs of eight
// SNPs, so its shard bounds fall at block pairs whatever M. At every M
// from 3 to 40 — below one block, at multiples of eight and one either
// side — every set of 1 to 7 shards must cover C(M,2) pairs between them
// and merge to the unsharded Report.
func TestPairShardSetsMergeToTheSearch(t *testing.T) {
	ctx := context.Background()
	for m := 3; m <= 40; m++ {
		mx, err := trigene.Generate(trigene.GenConfig{SNPs: m, Samples: 96, Seed: int64(m)})
		if err != nil {
			t.Fatal(err)
		}
		s, err := trigene.NewSession(mx)
		if err != nil {
			t.Fatal(err)
		}
		base := []trigene.Option{trigene.WithOrder(2), trigene.WithTopK(5)}
		full, err := s.Search(ctx, base...)
		if err != nil {
			t.Fatal(err)
		}
		if full.Combinations != combin.Pairs(m) {
			t.Fatalf("%d SNPs: %d pairs, want %d", m, full.Combinations, combin.Pairs(m))
		}
		for count := 1; count <= 7; count++ {
			parts := make([]*trigene.Report, count)
			for i := range parts {
				if parts[i], err = s.Search(ctx, append(base, trigene.WithShard(i, count))...); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := trigene.MergeReports(parts...)
			if err != nil {
				t.Fatalf("%d SNPs, %d shards: %v", m, count, err)
			}
			reportsEqual(t, fmt.Sprintf("%d SNPs, %d shards", m, count), merged, full)
		}
	}
}

// TestMergeRejectsMixedBlockSizes: V3F/V4F cut the block-triple space at
// one lane group of 8 SNPs. Reports of the removed V3/V4, and fused shards
// from before the block size was named, cut it at blocks of 4 and say
// "block-triples": they rank different triples and must not merge with a
// bs8 shard, whatever their indices.
func TestMergeRejectsMixedBlockSizes(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	shard := func(a trigene.Approach, i int) *trigene.Report {
		t.Helper()
		rep, err := s.Search(ctx, trigene.WithApproach(a), trigene.WithTopK(5), trigene.WithShard(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	v3f := []*trigene.Report{shard(trigene.V3Fused, 0), shard(trigene.V3Fused, 1)}
	v4f := []*trigene.Report{shard(trigene.V4Fused, 0), shard(trigene.V4Fused, 1)}
	if v3f[0].Shard.Space != "block-triples-bs8" || v4f[0].Shard.Space != "block-triples-bs8" {
		t.Fatalf("shard spaces %q (V3F) and %q (V4F)", v3f[0].Shard.Space, v4f[0].Shard.Space)
	}
	var legacy []*trigene.Report
	for _, r := range v4f {
		old := *r
		sh := *r.Shard
		sh.Space = trigene.ShardSpaceBlocks
		old.Approach, old.Shard = "V4", &sh
		legacy = append(legacy, &old)
	}
	for _, a := range legacy {
		for _, b := range v4f {
			if _, err := trigene.MergeReports(a, b); err == nil {
				t.Errorf("merged a block-triples shard %d with a block-triples-bs8 shard %d", a.Shard.Index, b.Shard.Index)
			}
		}
	}
	for _, set := range [][]*trigene.Report{v3f, v4f, {v3f[0], v4f[1]}} {
		if _, err := trigene.MergeReports(set...); err != nil {
			t.Errorf("%s shards did not merge: %v", set[0].Approach, err)
		}
	}
}

// TestSearchCutsByAutoGrain: a rank-space run is cut from its own inputs.
// At 48 SNPs on two workers an order-4 search claims k-combination ranks
// at sched.AutoGrain's grain for C(48,4) ranks and two workers; an order-2
// search at 640 SNPs x 16384 samples walks block pairs and claims one at
// a time, as the order-3 block walk does its block triples.
func TestSearchCutsByAutoGrain(t *testing.T) {
	for _, tc := range []struct {
		snps, samples, order int
		space                string
		grain                int64
	}{
		{48, 256, 4, "kway", sched.AutoGrain(combin.Binomial(48, 4), 2)},
		{640, 16384, 2, "pair", 1},
	} {
		mx, err := trigene.Generate(trigene.GenConfig{SNPs: tc.snps, Samples: tc.samples, Seed: 5, MAFMin: 0.2, MAFMax: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		s, err := trigene.NewSession(mx)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := s.Search(context.Background(), trigene.WithOrder(tc.order), trigene.WithWorkers(2), trigene.WithMetrics(reg)); err != nil {
			t.Fatal(err)
		}
		var expo strings.Builder
		if _, err := reg.WriteTo(&expo); err != nil {
			t.Fatal(err)
		}
		var grain, tiles float64
		for _, line := range strings.Split(expo.String(), "\n") {
			series, v, _ := strings.Cut(line, " ")
			switch series {
			case `trigene_sched_grain{space="` + tc.space + `"}`:
				grain, _ = strconv.ParseFloat(v, 64)
			case `trigene_sched_tiles_claimed_total{space="` + tc.space + `"}`:
				tiles, _ = strconv.ParseFloat(v, 64)
			}
		}
		if tiles == 0 {
			t.Errorf("order %d: no %s tiles claimed", tc.order, tc.space)
		}
		if grain != float64(tc.grain) {
			t.Errorf("order %d: grain %g, want %d", tc.order, grain, tc.grain)
		}
	}
}
