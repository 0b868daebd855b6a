package trigene_test

import (
	"context"
	"testing"

	"trigene"
)

// TestAutoTuneBitExactAndTraced: WithAutoTune changes how the search
// executes, never what it finds — and the Report carries the decision
// trace the planner actually applied.
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
	if p.Grain <= 0 || p.PredictedCombosPerSec <= 0 || p.CPUDevice == "" {
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
	// The hetero plan seeds a split and device claim ratio.
	tuned, err := s.Search(ctx, trigene.WithBackend(trigene.Hetero()), trigene.WithAutoTune())
	if err != nil {
		t.Fatal(err)
	}
	if p := tuned.Plan; p.CPUFraction <= 0 || p.CPUFraction >= 1 || p.GPUGrains < 1 {
		t.Errorf("hetero plan not seeded: %+v", p)
	}
}

// TestMergeRejectsMixedShardSpaces: a rank shard and a block-triple
// shard of the same (index, count) cover different triples; merging
// them must fail loudly instead of silently mis-unioning — the trap
// being autotuning one shard of a search but not another.
func TestMergeRejectsMixedShardSpaces(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	ranks, err := s.Search(ctx, trigene.WithApproach(trigene.V2Split), trigene.WithShard(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := s.Search(ctx, trigene.WithApproach(trigene.V4Vector), trigene.WithShard(1, 2))
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
	other, err := s.Search(ctx, trigene.WithApproach(trigene.V2Split), trigene.WithShard(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trigene.MergeReports(ranks, other); err != nil {
		t.Errorf("same-space merge failed: %v", err)
	}
}
