package trigene_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"trigene"
)

// plantedSession builds a session over a dataset with a strong 3-way
// signal at (3, 9, 15).
func plantedSession(t *testing.T) *trigene.Session {
	t.Helper()
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 24, Samples: 900, Seed: 11, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{3, 9, 15},
			Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantSNPs(t *testing.T, got []int, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("candidate %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %v, want %v", got, want)
		}
	}
}

// TestSessionBackendsAgree drives all four backends through the one
// Search entry point and checks they find the same planted triple.
func TestSessionBackendsAgree(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()

	cpu, err := s.Search(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, cpu.Best.SNPs, 3, 9, 15)
	if cpu.Backend != "cpu" || cpu.Approach != "V4F" || cpu.Objective != "k2" || cpu.Order != 3 {
		t.Errorf("cpu report metadata: %+v", cpu)
	}

	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := s.Search(ctx, trigene.WithBackend(trigene.GPUSim(gn1)))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, gpu.Best.SNPs, 3, 9, 15)
	if gpu.Best.Score != cpu.Best.Score {
		t.Errorf("gpu score %.9f != cpu %.9f", gpu.Best.Score, cpu.Best.Score)
	}
	if gpu.GPU == nil || gpu.GPU.Transactions == 0 {
		t.Error("gpu report missing modeled stats")
	}
	if gpu.Backend != "gpusim:GN1" {
		t.Errorf("gpu backend name %q", gpu.Backend)
	}

	base, err := s.Search(ctx, trigene.WithBackend(trigene.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, base.Best.SNPs, 3, 9, 15)
	if base.Objective != "mi" || base.Approach != "mpi3snp" {
		t.Errorf("baseline report metadata: %+v", base)
	}

	het, err := s.Search(ctx, trigene.WithBackend(trigene.Hetero()))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, het.Best.SNPs, 3, 9, 15)
	if het.Best.Score != cpu.Best.Score {
		t.Errorf("hetero score %.9f != cpu %.9f", het.Best.Score, cpu.Best.Score)
	}
	// Work-stealing: the realized split depends on the race between the
	// two sides, but the union must cover the space and the fraction
	// must be a valid share.
	if het.Hetero == nil || het.Hetero.CPUFraction < 0 || het.Hetero.CPUFraction >= 1 {
		t.Errorf("hetero split info: %+v", het.Hetero)
	}
	if het.Combinations != cpu.Combinations {
		t.Errorf("hetero covered %d combinations, want %d", het.Combinations, cpu.Combinations)
	}
}

// TestSessionOrdersShareReportType checks orders 2, 3 and k flow
// through the same entry point and Report shape.
func TestSessionOrdersShareReportType(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	for _, order := range []int{2, 3, 4} {
		rep, err := s.Search(ctx, trigene.WithOrder(order), trigene.WithTopK(3))
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if rep.Order != order || len(rep.Best.SNPs) != order || len(rep.TopK) != 3 {
			t.Errorf("order %d report: order=%d best=%v topk=%d",
				order, rep.Order, rep.Best.SNPs, len(rep.TopK))
		}
		if rep.Combinations <= 0 || rep.ElementsPerSec <= 0 {
			t.Errorf("order %d stats missing: %+v", order, rep)
		}
	}
}

// TestSessionShardBitExact runs every shard of a CPU search and checks
// the merged top-K is bit-exact against the unsharded run — the
// distributed-partitioning acceptance criterion.
func TestSessionShardBitExact(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()

	full, err := s.Search(ctx, trigene.WithTopK(10))
	if err != nil {
		t.Fatal(err)
	}

	const shards = 5
	var parts []*trigene.Report
	var combos int64
	for i := 0; i < shards; i++ {
		rep, err := s.Search(ctx, trigene.WithTopK(10), trigene.WithShard(i, shards))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if rep.Shard == nil || rep.Shard.Index != i || rep.Shard.Count != shards {
			t.Fatalf("shard %d info: %+v", i, rep.Shard)
		}
		if rep.Approach != full.Approach || rep.Shard.Space != trigene.ShardSpaceFusedBlocks {
			t.Errorf("shard %d ran %q over %q, want the unsharded default %q over block triples",
				i, rep.Approach, rep.Shard.Space, full.Approach)
		}
		combos += rep.Combinations
		parts = append(parts, rep)
	}
	if combos != full.Combinations {
		t.Errorf("shards cover %d combinations, full search %d", combos, full.Combinations)
	}

	merged, err := trigene.MergeReports(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.TopK) != len(full.TopK) {
		t.Fatalf("merged top-K %d entries, full %d", len(merged.TopK), len(full.TopK))
	}
	for i := range full.TopK {
		wantSNPs(t, merged.TopK[i].SNPs, full.TopK[i].SNPs...)
		if merged.TopK[i].Score != full.TopK[i].Score {
			t.Errorf("top-%d score %.12f != %.12f", i+1, merged.TopK[i].Score, full.TopK[i].Score)
		}
	}
}

// TestSessionShardGPU checks the shard primitive is backend-agnostic:
// sharded simulated-GPU runs merge to the full-space best.
func TestSessionShardGPU(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	gi2, err := trigene.GPUByID("GI2")
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Search(ctx, trigene.WithBackend(trigene.GPUSim(gi2)))
	if err != nil {
		t.Fatal(err)
	}
	var parts []*trigene.Report
	for i := 0; i < 3; i++ {
		rep, err := s.Search(ctx, trigene.WithBackend(trigene.GPUSim(gi2)), trigene.WithShard(i, 3))
		if err != nil {
			t.Fatalf("gpu shard %d: %v", i, err)
		}
		parts = append(parts, rep)
	}
	merged, err := trigene.MergeReports(parts...)
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, merged.Best.SNPs, full.Best.SNPs...)
	if merged.Best.Score != full.Best.Score {
		t.Errorf("merged gpu best %.12f != full %.12f", merged.Best.Score, full.Best.Score)
	}
}

// TestSessionShardEverywhere checks the scheduler made sharding a
// backend-agnostic property: configurations that failed loudly before
// the sched layer now run and carry shard metadata.
func TestSessionShardEverywhere(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	cases := []struct {
		name  string
		space string
		opts  []trigene.Option
	}{
		{"baseline", trigene.ShardSpaceRanks, []trigene.Option{trigene.WithBackend(trigene.Baseline()), trigene.WithShard(0, 2)}},
		{"hetero", trigene.ShardSpaceRanks, []trigene.Option{trigene.WithBackend(trigene.Hetero()), trigene.WithShard(0, 2)}},
		{"cpu order 2", "block-pairs-bs8", []trigene.Option{trigene.WithOrder(2), trigene.WithShard(0, 2)}},
		{"cpu order 4", trigene.ShardSpaceRanks, []trigene.Option{trigene.WithOrder(4), trigene.WithShard(0, 2)}},
		{"cpu V3F pinned", trigene.ShardSpaceFusedBlocks, []trigene.Option{trigene.WithApproach(trigene.V3Fused), trigene.WithShard(0, 2)}},
		{"cpu V4F pinned", trigene.ShardSpaceFusedBlocks, []trigene.Option{trigene.WithApproach(trigene.V4Fused), trigene.WithShard(0, 2)}},
	}
	for _, tc := range cases {
		rep, err := s.Search(ctx, tc.opts...)
		if err != nil {
			t.Errorf("%s: sharded search failed: %v", tc.name, err)
			continue
		}
		if rep.Shard == nil || rep.Shard.Space != tc.space {
			t.Errorf("%s: shard info %+v, want space %q", tc.name, rep.Shard, tc.space)
		}
	}
	// Approach pinning still applies to order 3 only.
	for _, order := range []int{2, 4} {
		if _, err := s.Search(ctx, trigene.WithOrder(order), trigene.WithApproach(trigene.V3Fused)); err == nil {
			t.Errorf("order %d with pinned approach accepted, want error", order)
		}
	}
}

// TestSessionOptionErrors covers the loud-failure surface of the
// unified API.
func TestSessionOptionErrors(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []trigene.Option
	}{
		{"order too low", []trigene.Option{trigene.WithOrder(1)}},
		{"order too high", []trigene.Option{trigene.WithOrder(8)}},
		{"topk zero", []trigene.Option{trigene.WithTopK(0)}},
		{"bad objective", []trigene.Option{trigene.WithObjective("bogus")}},
		{"nil backend", []trigene.Option{trigene.WithBackend(nil)}},
		{"bad shard", []trigene.Option{trigene.WithShard(2, 2)}},
		{"bad approach", []trigene.Option{trigene.WithApproach(trigene.Approach(9))}},
		{"bad workers", []trigene.Option{trigene.WithWorkers(0)}},
		{"gpu order", []trigene.Option{trigene.WithBackend(trigene.GPUSim(gn1)), trigene.WithOrder(4)}},
		{"baseline objective", []trigene.Option{trigene.WithBackend(trigene.Baseline()), trigene.WithObjective("k2")}},
		{"baseline approach", []trigene.Option{trigene.WithBackend(trigene.Baseline()), trigene.WithApproach(trigene.V2Split)}},
		{"hetero order", []trigene.Option{trigene.WithBackend(trigene.Hetero()), trigene.WithOrder(2)}},
	}
	for _, tc := range cases {
		if _, err := s.Search(ctx, tc.opts...); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}

// TestSessionContextCancel checks every backend observes cancellation.
func TestSessionContextCancel(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 64, Samples: 512, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	backends := []trigene.Backend{trigene.CPU(), trigene.GPUSim(gn1), trigene.Baseline(), trigene.Hetero()}
	for _, b := range backends {
		if _, err := s.Search(ctx, trigene.WithBackend(b)); err == nil {
			t.Errorf("%s: cancelled search returned no error", b.Name())
		}
	}
	if _, err := s.PermutationTest(ctx, []int{0, 1, 2}); err == nil {
		t.Error("cancelled permutation test returned no error")
	}
}

// TestSessionProgress checks the progress callback fires and reaches
// the total on a sharded CPU run.
func TestSessionProgress(t *testing.T) {
	s := plantedSession(t)
	var calls, last atomic.Int64
	rep, err := s.Search(context.Background(),
		trigene.WithShard(0, 2),
		trigene.WithProgress(func(done, total int64) {
			calls.Add(1)
			// Callbacks race across workers; keep the furthest point.
			for {
				cur := last.Load()
				if done <= cur || last.CompareAndSwap(cur, done) {
					break
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress callback never invoked")
	}
	if last.Load() != rep.Combinations {
		t.Errorf("final progress %d, want %d", last.Load(), rep.Combinations)
	}
}

// TestSessionPermutationTest checks the unified significance entry
// point across orders and its agreement with the scan objective.
func TestSessionPermutationTest(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	rep, err := s.Search(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := s.PermutationTest(ctx, rep.Best.SNPs,
		trigene.WithPermutations(100), trigene.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Observed != rep.Best.Score {
		t.Errorf("observed %.6f != scan score %.6f", sig.Observed, rep.Best.Score)
	}
	if sig.PValue > 0.02 {
		t.Errorf("planted triple p = %.4f, want tiny", sig.PValue)
	}

	// Order 4 flows through the generic path.
	if _, err := s.PermutationTest(ctx, []int{1, 5, 9, 13},
		trigene.WithPermutations(20), trigene.WithSeed(2)); err != nil {
		t.Errorf("order-4 permutation test: %v", err)
	}
	// Loud failures.
	if _, err := s.PermutationTest(ctx, []int{5, 5, 9}, trigene.WithPermutations(10)); err == nil {
		t.Error("non-increasing combination accepted")
	}
	if _, err := s.PermutationTest(ctx, rep.Best.SNPs, trigene.WithShard(0, 2)); err == nil {
		t.Error("sharded permutation test accepted")
	}
	if _, err := s.PermutationTest(ctx, rep.Best.SNPs, trigene.WithBackend(trigene.Baseline())); err == nil {
		t.Error("non-cpu permutation test accepted")
	}
	if _, err := s.PermutationTest(ctx, rep.Best.SNPs, trigene.WithTopK(5)); err == nil {
		t.Error("WithTopK on a permutation test accepted")
	}
	if _, err := s.PermutationTest(ctx, rep.Best.SNPs, trigene.WithApproach(trigene.V2Split)); err == nil {
		t.Error("WithApproach on a permutation test accepted")
	}
	if _, err := s.PermutationTest(ctx, rep.Best.SNPs, trigene.WithOrder(2)); err == nil {
		t.Error("conflicting WithOrder on a permutation test accepted")
	}
	// A matching explicit order is fine.
	if _, err := s.PermutationTest(ctx, rep.Best.SNPs, trigene.WithOrder(3),
		trigene.WithPermutations(10)); err != nil {
		t.Errorf("matching WithOrder rejected: %v", err)
	}
}

// TestPermutationSliceConcurrent: a session keeps the candidates it last
// prepared for the permutation kernel, and a cluster worker runs ranges of
// one job, and of different jobs, on one session at once. Ranges run from
// several goroutines together — two candidate sets and two objectives
// taking turns, so the kept set is replaced while others read it — must
// give what each range gives on a fresh session of the same data.
func TestPermutationSliceConcurrent(t *testing.T) {
	shared, fresh := plantedSession(t), plantedSession(t)
	ctx := context.Background()
	sets := [][][]int{{{3, 9, 15}, {0, 1}}, {{2, 4, 6}, {3, 9}, {1, 5, 7, 11}}}
	objectives := []string{"k2", "gini"}
	type job struct{ set, obj, offset int }
	var jobs []job
	for i := 0; i < 24; i++ {
		jobs = append(jobs, job{i % 2, i / 2 % 2, 37 * i})
	}
	want := make([]*trigene.PermScores, len(jobs))
	for i, j := range jobs {
		ps, err := fresh.PermutationSlice(ctx, sets[j.set], j.offset, 50,
			trigene.WithSeed(8), trigene.WithObjective(objectives[j.obj]), trigene.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ps
	}
	got := make([]*trigene.PermScores, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = shared.PermutationSlice(ctx, sets[j.set], j.offset, 50,
				trigene.WithSeed(8), trigene.WithObjective(objectives[j.obj]), trigene.WithWorkers(2))
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i].Hits, want[i].Hits) || !reflect.DeepEqual(got[i].Observed, want[i].Observed) {
			t.Errorf("range %+v: %v hits / %v observed, a fresh session gives %v / %v",
				jobs[i], got[i].Hits, got[i].Observed, want[i].Hits, want[i].Observed)
		}
	}
}

// TestMergePermsRefusesMixedStreams: ranges of one test tile and merge
// exactly, and carry the permutation stream they were drawn from; a
// range from another stream — or from a release that did not write the
// field, which reads as stream 1 — is refused with a PermStreamError
// wherever it sits among the ranges, never summed.
func TestMergePermsRefusesMixedStreams(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	candidates := [][]int{{3, 9, 15}, {0, 1}}
	slice := func(offset, count int) *trigene.PermScores {
		ps, err := s.PermutationSlice(ctx, candidates, offset, count, trigene.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	a, b, whole := slice(0, 40), slice(40, 60), slice(0, 100)
	merged, err := trigene.MergePerms(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stream == 0 || merged.Stream != a.Stream || merged.Count != 100 {
		t.Fatalf("merged range: stream %d (parts %d), count %d", merged.Stream, a.Stream, merged.Count)
	}
	for i := range candidates {
		if merged.Hits[i] != whole.Hits[i] || merged.Observed[i] != whole.Observed[i] {
			t.Errorf("candidate %d: tiled %d hits / %v, whole range %d / %v",
				i, merged.Hits[i], merged.Observed[i], whole.Hits[i], whole.Observed[i])
		}
	}
	rep, err := trigene.FinalizePerms(&trigene.PermSpec{SNPs: candidates, Permutations: 100, Seed: 3}, merged, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Perm.Stream != a.Stream {
		t.Errorf("Report.Perm.Stream = %d, want %d", rep.Perm.Stream, a.Stream)
	}

	for _, foreign := range []int{0, 1, a.Stream + 1} {
		old := *b
		old.Stream = foreign
		for _, ranges := range [][]*trigene.PermScores{{a, &old}, {&old, a}} {
			var se *trigene.PermStreamError
			if _, err := trigene.MergePerms(ranges...); !errors.As(err, &se) || se.Want != a.Stream {
				t.Errorf("stream %d merged with stream %d: err = %v, want a PermStreamError", foreign, a.Stream, err)
			}
		}
	}
}

// TestMergeReportsSerialized checks the distributed workflow: shard
// Reports that crossed a JSON boundary still merge to the bit-exact
// full-space top-K.
func TestMergeReportsSerialized(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	full, err := s.Search(ctx, trigene.WithTopK(6))
	if err != nil {
		t.Fatal(err)
	}
	var wire []*trigene.Report
	for i := 0; i < 3; i++ {
		rep, err := s.Search(ctx, trigene.WithTopK(6), trigene.WithShard(i, 3))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var back trigene.Report
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		wire = append(wire, &back)
	}
	merged, err := trigene.MergeReports(wire...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.TopK) != len(full.TopK) {
		t.Fatalf("merged %d candidates, want %d", len(merged.TopK), len(full.TopK))
	}
	for i := range full.TopK {
		wantSNPs(t, merged.TopK[i].SNPs, full.TopK[i].SNPs...)
		if merged.TopK[i].Score != full.TopK[i].Score {
			t.Errorf("top-%d score %.12f != %.12f", i+1, merged.TopK[i].Score, full.TopK[i].Score)
		}
	}
}

// TestMergeReportsErrors covers the merge helper's validation.
func TestMergeReportsErrors(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	if _, err := trigene.MergeReports(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := trigene.MergeReports(&trigene.Report{}); err == nil {
		t.Error("hand-built report accepted")
	}
	r2, err := s.Search(ctx, trigene.WithOrder(2))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := s.Search(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trigene.MergeReports(r2, r3); err == nil {
		t.Error("cross-order merge accepted")
	}
}

// TestParseRoundTrips checks the approach and kernel parsers accept
// descriptive, case-insensitive names and round-trip their String()
// forms.
func TestParseRoundTrips(t *testing.T) {
	for name, want := range map[string]trigene.Approach{
		"fused": trigene.V4Fused, "FUSED-BLOCKED": trigene.V3Fused,
		"v3f": trigene.V3Fused, " V4F ": trigene.V4Fused, "5": trigene.V3Fused, "v6": trigene.V4Fused,
	} {
		got, err := trigene.ParseApproach(name)
		if err != nil || got != want {
			t.Errorf("ParseApproach(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, a := range []trigene.Approach{trigene.V3Fused, trigene.V4Fused} {
		got, err := trigene.ParseApproach(a.String())
		if err != nil || got != a {
			t.Errorf("approach round trip %v: got %v, %v", a, got, err)
		}
	}
	// V1..V4 are the simulated GPU's kernels, not CPU approaches.
	for _, name := range []string{"naive", "SPLIT", "Blocked", "vector", "v1", " V4 ", "2", "V3"} {
		if a, err := trigene.ParseApproach(name); err == nil {
			t.Errorf("ParseApproach(%q) = %v, want a refusal", name, a)
		}
	}
	for name, want := range map[string]trigene.GPUKernel{
		"naive": trigene.GPUNaive, "Split": trigene.GPUSplit,
		"TRANSPOSED": trigene.GPUTransposed, "tiled": trigene.GPUTiled,
		"v3": trigene.GPUTransposed, "4": trigene.GPUTiled,
	} {
		got, err := trigene.ParseGPUKernel(name)
		if err != nil || got != want {
			t.Errorf("ParseGPUKernel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for k := trigene.GPUNaive; k <= trigene.GPUTiled; k++ {
		got, err := trigene.ParseGPUKernel(k.String())
		if err != nil || got != k {
			t.Errorf("kernel round trip %v: got %v, %v", k, got, err)
		}
	}
	if _, err := trigene.ParseApproach("blocky"); err == nil {
		t.Error("bad approach accepted")
	}
	if _, err := trigene.ParseGPUKernel("blocked"); err == nil {
		t.Error("GPU kernel parser accepted the CPU-only name \"blocked\"")
	}
}
