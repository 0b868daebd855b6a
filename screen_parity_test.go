package trigene_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"trigene"
	"trigene/internal/obs"
)

// Screened-search parity is the tentpole guarantee of the two-stage
// pipeline: pruning must only ever remove work, never change what the
// surviving work computes.

// TestScreenPermissiveParity: a permissive screen (keep every SNP)
// must be bit-exact with an unscreened run on every backend and every
// order — same candidates, same scores, same tie-breaks — because
// stage 2 then runs over the identity survivor set.
func TestScreenPermissiveParity(t *testing.T) {
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
				plain, err := s.Search(ctx, base...)
				if err != nil {
					t.Fatal(err)
				}
				screened, err := s.Search(ctx, append(base,
					trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: s.SNPs()}))...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "permissive screen", screened, plain)
				if screened.Screen == nil {
					t.Fatal("screened run carries no ScreenInfo")
				}
				if screened.Screen.Survivors != s.SNPs() {
					t.Errorf("permissive screen kept %d of %d SNPs", screened.Screen.Survivors, s.SNPs())
				}
				if screened.Screen.PairsScanned == 0 || screened.Screen.Stage1Ns <= 0 {
					t.Errorf("stage-1 audit trail empty: %+v", screened.Screen)
				}
				if plain.Screen != nil {
					t.Error("unscreened run carries a ScreenInfo")
				}
			})
		}
	}
}

// TestScreenTightRecall: a tight screen still surfaces the planted
// triple — its SNPs rank high in the pairwise pre-scan by
// construction of ThresholdPenetrance — and the audit trail records
// the pruning. A second, seedless screen pins survivor recall itself.
func TestScreenTightRecall(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	rep, err := s.Search(ctx, trigene.WithTopK(3),
		trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: 10, SeedPairs: 3}))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, rep.Best.SNPs, 3, 9, 15)
	sc := rep.Screen
	if sc == nil {
		t.Fatal("no ScreenInfo")
	}
	if sc.Survivors != 10 || sc.SeedPairs != 3 {
		t.Errorf("screen kept %d survivors / %d seeds, want 10 / 3", sc.Survivors, sc.SeedPairs)
	}
	m := int64(s.SNPs())
	if sc.PairsScanned != m*(m-1)/2 {
		t.Errorf("scanned %d pairs, want C(%d,2) = %d", sc.PairsScanned, m, m*(m-1)/2)
	}
	// Without seeds nothing puts a pruned SNP back: the planted triple is
	// best only if all three of its SNPs survive stage 1.
	rep, err = s.Search(ctx, trigene.WithTopK(3),
		trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: 10}))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, rep.Best.SNPs, 3, 9, 15)
}

// TestScreenBudgetSizesEveryOrder: a budget-only screen
// (ScreenSpec.BudgetSeconds) starts the exhaustive C(M,k) search at order
// k. A budget it fits declines the screen, naming C(M,k), and the run is
// the unscreened one. A budget below even the pair scan keeps the floor,
// max(3, k) survivors, which the order-k
// stage 2 can search, and ranks what the same survivor count set by
// MaxSurvivors ranks — except at order 2, where stage 1 is the exhaustive
// search and every budget declines.
func TestScreenBudgetSizesEveryOrder(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	for _, k := range []int{2, 3, 4} {
		base := []trigene.Option{trigene.WithOrder(k), trigene.WithTopK(4)}
		plain, err := s.Search(ctx, base...)
		if err != nil {
			t.Fatal(err)
		}

		rep, err := s.Search(ctx, append(base, trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: 1e6}))...)
		if err != nil {
			t.Fatalf("order %d, huge budget: %v", k, err)
		}
		if rep.Screen == nil || !rep.Screen.Declined {
			t.Fatalf("order %d: a huge budget did not decline the screen: %+v", k, rep.Screen)
		}
		if want := fmt.Sprintf("C(%d,%d)", s.SNPs(), k); !strings.Contains(rep.Screen.Reason, want) {
			t.Errorf("order %d: decline reason %q does not name %s", k, rep.Screen.Reason, want)
		}
		reportsEqual(t, fmt.Sprintf("order %d declined screen", k), rep, plain)

		rep, err = s.Search(ctx, append(base, trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: 1e-9}))...)
		if err != nil {
			t.Fatalf("order %d, tiny budget: %v", k, err)
		}
		if k == 2 {
			if rep.Screen == nil || !rep.Screen.Declined || !strings.Contains(rep.Screen.Reason, "order 2") {
				t.Fatalf("order 2: a tiny budget did not decline the screen: %+v", rep.Screen)
			}
			reportsEqual(t, "order 2 declined screen, tiny budget", rep, plain)
			continue
		}
		if rep.Screen == nil || rep.Screen.Declined {
			t.Fatalf("order %d: a tiny budget did not screen: %+v", k, rep.Screen)
		}
		n := rep.Screen.Survivors
		if n < max(3, k) || n >= s.SNPs() {
			t.Errorf("order %d: screen kept %d survivors, want [%d, %d)", k, n, max(3, k), s.SNPs())
		}
		sized, err := s.Search(ctx, append(base, trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: n}))...)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, fmt.Sprintf("order %d budget screen vs %d survivors", k, n), rep, sized)
	}
}

// TestScreenBudgetPricedByTheRun: a budget screen prices itself from its
// own exhaustive search on this host. At 96 x 16384, order 3, a budget of
// ten times the measured exhaustive wall runs that search to the end:
// the screen is declined and the Report is the unscreened one. (The
// analytical host model priced this search at over a second, past such a
// budget, and screened it.) A budget a quarter of the wall screens, and
// its reason names the rate the search measured. Both decisions reach
// the metrics registry with the measured rate.
func TestScreenBudgetPricedByTheRun(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 96, Samples: 16384, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reg := obs.NewRegistry()
	base := []trigene.Option{trigene.WithTopK(10)}
	if _, err := s.Search(ctx, base...); err != nil { // builds the encodings
		t.Fatal(err)
	}
	start := time.Now()
	plain, err := s.Search(ctx, base...)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	base = append(base, trigene.WithMetrics(reg))
	rep, err := s.Search(ctx, append(base, trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: 10 * wall.Seconds()}))...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Screen == nil || !rep.Screen.Declined {
		t.Fatalf("a budget of 10x the %v exhaustive wall screened: %+v", wall, rep.Screen)
	}
	if !strings.Contains(rep.Screen.Reason, "combinations/s") {
		t.Errorf("decline reason %q names no measured rate", rep.Screen.Reason)
	}
	reportsEqual(t, "budget of 10x the exhaustive wall", rep, plain)

	rep, err = s.Search(ctx, append(base, trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: wall.Seconds() / 4}))...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Screen == nil || rep.Screen.Declined || rep.Screen.Survivors >= s.SNPs() {
		t.Fatalf("a budget of a quarter of the %v exhaustive wall did not screen: %+v", wall, rep.Screen)
	}
	for _, want := range []string{"combinations/s measured", "projected", "stage 1", fmt.Sprintf("to %d survivors", rep.Screen.Survivors)} {
		if !strings.Contains(rep.Screen.Reason, want) {
			t.Errorf("screen reason %q does not name %q", rep.Screen.Reason, want)
		}
	}

	var expo bytes.Buffer
	if _, err := reg.WriteTo(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`trigene_screen_budget_decisions_total{decision="fit"} 1`,
		`trigene_screen_budget_decisions_total{decision="screened"} 1`,
		"trigene_screen_probe_combinations_per_second ",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("scrape lacks %q:\n%s", want, expo.String())
		}
	}
}

// TestScreenBudgetNeedsProgress: only the cpu backend reports the
// progress a budget is priced from, and shards of one search would each
// price their own slice, so gpusim, hetero, baseline and a sharded search
// refuse a budget with a BudgetScreenError naming MaxSurvivors, and a
// MaxSurvivors screen runs on each.
func TestScreenBudgetNeedsProgress(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]trigene.Option{
		"gpusim:GN1": trigene.WithBackend(trigene.GPUSim(gn1)),
		"hetero":     trigene.WithBackend(trigene.Hetero()),
		"baseline":   trigene.WithBackend(trigene.Baseline()),
		"shard 0/2":  trigene.WithShard(0, 2),
	} {
		_, err := s.Search(ctx, opt, trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: 1e6}))
		var be *trigene.BudgetScreenError
		if !errors.As(err, &be) || !strings.Contains(err.Error(), "MaxSurvivors") {
			t.Errorf("%s: budget screen error %v, want a BudgetScreenError naming MaxSurvivors", name, err)
		}
		if _, err := s.Search(ctx, opt, trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: 12})); err != nil {
			t.Errorf("%s: MaxSurvivors screen: %v", name, err)
		}
	}
}

// TestScreenTraceSpans: a traced screened search accounts for itself —
// one span per phase (screen, subset, stage2, seeded), in that order,
// inside the search span, with the last three summing to no more than
// the Stage2Ns they split. Without seeds there is no seeded span.
func TestScreenTraceSpans(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	for _, tc := range []struct {
		spec trigene.ScreenSpec
		want []string
	}{
		{trigene.ScreenSpec{MaxSurvivors: 10, SeedPairs: 3}, []string{"screen", "subset", "stage2", "seeded", "search"}},
		{trigene.ScreenSpec{MaxSurvivors: 10}, []string{"screen", "subset", "stage2", "search"}},
	} {
		rep, err := s.Search(ctx, trigene.WithTopK(3), trigene.WithTrace(), trigene.WithScreen(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Trace == nil {
			t.Fatal("traced search carries no trace")
		}
		var names []string
		spans := map[string]trigene.TraceSpan{}
		for _, sp := range rep.Trace.Spans {
			if sp.Name != "encode" { // present only when this search built an encoding
				names = append(names, sp.Name)
			}
			spans[sp.Name] = sp
		}
		if fmt.Sprint(names) != fmt.Sprint(tc.want) {
			t.Fatalf("spans %v, want %v", names, tc.want)
		}
		search := spans["search"]
		var stage2Sum int64
		for _, name := range tc.want[:len(tc.want)-1] {
			sp := spans[name]
			if sp.StartNs < search.StartNs || sp.StartNs+sp.DurationNs > search.StartNs+search.DurationNs {
				t.Errorf("span %s [%d,+%d] lies outside search [%d,+%d]", name, sp.StartNs, sp.DurationNs, search.StartNs, search.DurationNs)
			}
			if name != "screen" {
				stage2Sum += sp.DurationNs
			}
		}
		if stage2Sum <= 0 || stage2Sum > rep.Screen.Stage2Ns {
			t.Errorf("subset+stage2+seeded spans sum to %d ns, Stage2Ns is %d", stage2Sum, rep.Screen.Stage2Ns)
		}
	}
}

// TestScreenShardedMergeParity: a screened 2-shard run merged with
// MergeReports must equal the screened single-node run, and the merge
// must keep the screen audit trail. Locally each shard repeats the
// deterministic stage-1 scan and shards only stage 2, so the survivor
// sets agree by construction.
func TestScreenShardedMergeParity(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	for _, spec := range []trigene.ScreenSpec{
		{MaxSurvivors: 12},
		{MaxSurvivors: 10, SeedPairs: 3},
	} {
		t.Run(fmt.Sprintf("S%d_P%d", spec.MaxSurvivors, spec.SeedPairs), func(t *testing.T) {
			base := []trigene.Option{trigene.WithTopK(6), trigene.WithScreen(spec)}
			single, err := s.Search(ctx, base...)
			if err != nil {
				t.Fatal(err)
			}
			var parts []*trigene.Report
			for i := 0; i < 2; i++ {
				rep, err := s.Search(ctx, append(base, trigene.WithShard(i, 2))...)
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				parts = append(parts, rep)
			}
			merged, err := trigene.MergeReports(parts...)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, "screened 2-shard merge", merged, single)
			if merged.Screen == nil {
				t.Fatal("merge dropped the ScreenInfo")
			}
			if merged.Screen.Survivors != single.Screen.Survivors ||
				merged.Screen.Threshold != single.Screen.Threshold {
				t.Errorf("merged screen trail %+v, single-node %+v", merged.Screen, single.Screen)
			}
		})
	}
}

// TestMergeScreensShardCountsMatchUnsharded: the stage-1 scan cut into
// 1, 3 and 7 shards of its block-pair rank space (blocks of 8 SNPs) and
// merged with MergeScreens equals the unsharded scan bit for bit —
// per-SNP bests, seen planes, seed list and pair count — under every
// objective, on a dataset whose classes are ragged (413 samples) and on
// one of three SNPs, one block pair, so that six of seven shards are
// empty.
func TestMergeScreensShardCountsMatchUnsharded(t *testing.T) {
	ctx := context.Background()
	for _, shape := range [][2]int{{17, 413}, {3, 150}} {
		mx, err := trigene.Generate(trigene.GenConfig{SNPs: shape[0], Samples: shape[1], Seed: 21, MAFMin: 0.2, MAFMax: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		s, err := trigene.NewSession(mx)
		if err != nil {
			t.Fatal(err)
		}
		for _, objective := range []string{"k2", "mi", "gini"} {
			full, err := s.ScreenStage1(ctx, 5, trigene.WithObjective(objective))
			if err != nil {
				t.Fatal(err)
			}
			for _, count := range []int{1, 3, 7} {
				parts := make([]*trigene.ScreenScores, count)
				for i := range parts {
					parts[i], err = s.ScreenStage1(ctx, 5, trigene.WithObjective(objective), trigene.WithShard(i, count))
					if err != nil {
						t.Fatalf("%v %s shard %d/%d: %v", shape, objective, i, count, err)
					}
				}
				merged, err := trigene.MergeScreens(parts...)
				if err != nil {
					t.Fatal(err)
				}
				merged.DurationNs = full.DurationNs // wall time is the one field that may differ
				if !reflect.DeepEqual(merged, full) {
					t.Errorf("%v %s: %d shards merge to\n%+v\nunsharded scan\n%+v", shape, objective, count, merged, full)
				}
			}
		}
	}
}

// TestScreenRejections: screening composes with neither permutation
// tests nor empty specs, and budgets are validated before any work.
func TestScreenRejections(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	for _, spec := range []trigene.ScreenSpec{
		{},
		{MaxSurvivors: -1},
		{MaxSurvivors: 4, SeedPairs: -2},
		{BudgetSeconds: -0.5},
		{MaxSurvivors: s.SNPs() + 1},
		{MaxSurvivors: 2}, // fewer survivors than an order-3 search needs
	} {
		if _, err := s.Search(ctx, trigene.WithScreen(spec)); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	// Seed pairs extend to triples only.
	if _, err := s.Search(ctx, trigene.WithOrder(4),
		trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: 12, SeedPairs: 2})); err == nil {
		t.Error("order-4 seeded screen accepted")
	}
}
