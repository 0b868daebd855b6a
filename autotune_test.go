package trigene_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"trigene"
	"trigene/internal/combin"
	"trigene/internal/obs"
	"trigene/internal/sched"
)

// TestAutoTuneBitExactAndTraced: WithAutoTune never changes what the
// search finds, and the Report carries the planner's price of the run.
func TestAutoTuneBitExactAndTraced(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()

	plain, err := s.Search(ctx, trigene.WithTopK(5))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Plan != nil {
		t.Error("untuned run carries a plan trace")
	}
	tuned, err := s.Search(ctx, trigene.WithTopK(5), trigene.WithAutoTune())
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "autotuned", tuned, plain)
	if tuned.Approach != plain.Approach {
		t.Errorf("autotuned run ran %s, untuned %s", tuned.Approach, plain.Approach)
	}
	p := tuned.Plan
	if p == nil {
		t.Fatal("autotuned run has no plan trace")
	}
	if p.Backend != tuned.Backend {
		t.Errorf("plan backend %q, report ran %q", p.Backend, tuned.Backend)
	}
	if p.Approach != tuned.Approach {
		t.Errorf("plan approach %q, report ran %q", p.Approach, tuned.Approach)
	}
	if p.PredictedCombosPerSec <= 0 || p.CPUDevice == "" {
		t.Errorf("plan trace incomplete: %+v", p)
	}
}

// TestAutoTuneWithPinnedBackend: an explicit backend is a planner
// constraint — the plan records it and the run stays bit-exact.
func TestAutoTuneWithPinnedBackend(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []trigene.Backend{trigene.Hetero(), trigene.GPUSim(gn1)} {
		plain, err := s.Search(ctx, trigene.WithBackend(be), trigene.WithTopK(4))
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := s.Search(ctx, trigene.WithBackend(be), trigene.WithTopK(4), trigene.WithAutoTune())
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, be.Name(), tuned, plain)
		if tuned.Plan == nil || tuned.Plan.Backend != be.Name() {
			t.Errorf("%s: plan = %+v", be.Name(), tuned.Plan)
		}
	}
	// The hetero plan prices a split.
	tuned, err := s.Search(ctx, trigene.WithBackend(trigene.Hetero()), trigene.WithAutoTune())
	if err != nil {
		t.Fatal(err)
	}
	if p := tuned.Plan; p.CPUFraction <= 0 || p.CPUFraction >= 1 {
		t.Errorf("hetero plan has no split: %+v", p)
	}
	// ...priced on the V2 kernel its CPU half runs.
	if p := tuned.Plan; !strings.Contains(p.Reason, "CI3 V2 + GN1") {
		t.Errorf("hetero plan priced another CPU kernel: %q", p.Reason)
	}
}

// TestAutoTunePlanDescribesRun: Report.Plan names the backend and
// approach the run reports, and autotuning runs the approach an untuned
// search with the same options runs — on every order, pinned CPU
// approach and backend.
func TestAutoTunePlanDescribesRun(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	type planCase struct {
		name string
		opts []trigene.Option
	}
	cases := []planCase{
		{"cpu order 2", []trigene.Option{trigene.WithOrder(2)}},
		{"cpu order 3", nil},
		{"cpu order 4", []trigene.Option{trigene.WithOrder(4)}},
		{"gpusim", []trigene.Option{trigene.WithBackend(trigene.GPUSim(gn1))}},
		{"gpusim V2", []trigene.Option{trigene.WithBackend(trigene.GPUSim(gn1)), trigene.WithApproach(trigene.V2Split)}},
		{"baseline", []trigene.Option{trigene.WithBackend(trigene.Baseline())}},
		{"hetero", []trigene.Option{trigene.WithBackend(trigene.Hetero())}},
	}
	for _, a := range []trigene.Approach{trigene.V3Fused, trigene.V4Fused} {
		cases = append(cases, planCase{"cpu " + a.String(), []trigene.Option{trigene.WithApproach(a)}})
	}
	for _, tc := range cases {
		plain, err := s.Search(ctx, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tuned, err := s.Search(ctx, append(tc.opts, trigene.WithAutoTune())...)
		if err != nil {
			t.Fatalf("%s autotuned: %v", tc.name, err)
		}
		p := tuned.Plan
		if p == nil {
			t.Fatalf("%s: autotuned run has no plan", tc.name)
		}
		if p.Backend != tuned.Backend || p.Approach != tuned.Approach {
			t.Errorf("%s: plan says %s/%s, run reports %s/%s", tc.name, p.Backend, p.Approach, tuned.Backend, tuned.Approach)
		}
		if tuned.Backend != plain.Backend || tuned.Approach != plain.Approach {
			t.Errorf("%s: autotuned run is %s/%s, untuned %s/%s", tc.name, tuned.Backend, tuned.Approach, plain.Backend, plain.Approach)
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

// TestAutoTuneKeepsTheCut: autotuning prices a rank-space run and leaves
// its cut to the scheduler. At 640 SNPs x 16384 samples on two workers
// the model's rate once sized an order-2 claim at 567 pair ranks against
// AutoGrain's 1597; an autotuned search must claim the same grain and
// the same number of tiles as an untuned one.
func TestAutoTuneKeepsTheCut(t *testing.T) {
	const snps = 640
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snps, Samples: 16384, Seed: 5, MAFMin: 0.2, MAFMax: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(extra ...trigene.Option) (grain, tiles float64) {
		reg := obs.NewRegistry()
		opts := append([]trigene.Option{trigene.WithOrder(2), trigene.WithWorkers(2), trigene.WithMetrics(reg)}, extra...)
		if _, err := s.Search(context.Background(), opts...); err != nil {
			t.Fatal(err)
		}
		var expo strings.Builder
		if _, err := reg.WriteTo(&expo); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(expo.String(), "\n") {
			series, v, _ := strings.Cut(line, " ")
			switch series {
			case `trigene_sched_grain{space="pair"}`:
				grain, _ = strconv.ParseFloat(v, 64)
			case `trigene_sched_tiles_claimed_total{space="pair"}`:
				tiles, _ = strconv.ParseFloat(v, 64)
			}
		}
		return grain, tiles
	}
	grain, tiles := cut()
	tunedGrain, tunedTiles := cut(trigene.WithAutoTune())
	if tiles == 0 || tunedGrain != grain || tunedTiles != tiles {
		t.Errorf("autotuned run claimed %g tiles of %g ranks, untuned %g of %g", tunedTiles, tunedGrain, tiles, grain)
	}
	if want := sched.AutoGrain(combin.Pairs(snps), 2); grain != float64(want) {
		t.Errorf("grain %g, want AutoGrain's %d", grain, want)
	}
}
