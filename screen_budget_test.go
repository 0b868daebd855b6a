package trigene_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"trigene"
	"trigene/internal/combin"
)

// The budget screen (ScreenSpec.BudgetSeconds) was once priced by
// internal/plan's model. It now prices itself from the rate its own
// exhaustive search measures, and no search imports plan. The tests below keep each
// decision the model used to make pinned on the search that makes it now,
// through the public API, so that the model leaving the product loses none
// of them.

// screenSession is a session over a generated m x n dataset.
func screenSession(t *testing.T, m, n int) *trigene.Session {
	t.Helper()
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: m, Samples: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameRanking fails unless got ranks what want ranks, bit for bit.
func sameRanking(t *testing.T, label string, got, want *trigene.Report) {
	t.Helper()
	if got.Combinations != want.Combinations || fmt.Sprint(got.TopK) != fmt.Sprint(want.TopK) {
		t.Errorf("%s: %d combinations %v, want the unscreened %d combinations %v",
			label, got.Combinations, got.TopK, want.Combinations, want.TopK)
	}
}

// TestScreenBudgetValidation: a screen cannot be sized for a
// negative budget, and a zero budget with nothing else set is an empty
// spec; both are refused before a search runs.
func TestScreenBudgetValidation(t *testing.T) {
	s := screenSession(t, 24, 256)
	for _, spec := range []trigene.ScreenSpec{{BudgetSeconds: -1.5}, {BudgetSeconds: 0}} {
		if err := spec.Validate(0); err == nil {
			t.Errorf("budget %g: Validate accepted it", spec.BudgetSeconds)
		}
		if _, err := s.Search(context.Background(), trigene.WithScreen(spec)); err == nil {
			t.Errorf("budget %g: Search accepted it", spec.BudgetSeconds)
		}
	}
}

// TestScreenBudgetDeclinesWhenExhaustiveFits: when the exhaustive C(M,k)
// search fits the budget, screening would only add the pair scan, so the
// search runs to the end at every order, scans no pair, keeps no survivor
// set, ranks what the unscreened search ranks, and says why.
func TestScreenBudgetDeclinesWhenExhaustiveFits(t *testing.T) {
	s := screenSession(t, 24, 256)
	ctx := context.Background()
	for _, k := range []int{2, 3, 4} {
		base := []trigene.Option{trigene.WithOrder(k), trigene.WithTopK(5)}
		plain, err := s.Search(ctx, base...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Search(ctx, append(base, trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: 1e6}))...)
		if err != nil {
			t.Fatal(err)
		}
		d := rep.Screen
		if d == nil || !d.Declined {
			t.Fatalf("order %d: a budget the exhaustive search fits did not decline: %+v", k, d)
		}
		if d.Survivors != 0 || d.PairsScanned != 0 {
			t.Errorf("order %d: declined screen kept %d survivors over %d pairs", k, d.Survivors, d.PairsScanned)
		}
		if want := fmt.Sprintf("C(%d,%d)", s.SNPs(), k); !strings.Contains(d.Reason, want) {
			t.Errorf("order %d: reason %q does not name %s", k, d.Reason, want)
		}
		sameRanking(t, fmt.Sprintf("order %d", k), rep, plain)
	}
}

// TestScreenBudgetSizesUnderTightBudget: a budget well below the
// measured exhaustive wall yields a real pruning decision at orders 3 and
// 4: stage 1 scans every pair, the survivor set lies strictly between the
// floor and M, stage 2 searches exactly C(S,k), and the reason names the
// measured rate, the projection and the split.
func TestScreenBudgetSizesUnderTightBudget(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ m, n, k int }{{96, 16384, 3}, {24, 1024, 4}} {
		s := screenSession(t, tc.m, tc.n)
		base := []trigene.Option{trigene.WithOrder(tc.k), trigene.WithTopK(5)}
		if _, err := s.Search(ctx, base...); err != nil { // builds the encodings
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := s.Search(ctx, base...); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		rep, err := s.Search(ctx, append(base, trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: wall.Seconds() / 4}))...)
		if err != nil {
			t.Fatal(err)
		}
		d := rep.Screen
		if d == nil || d.Declined {
			t.Fatalf("order %d: a quarter of the %v exhaustive wall did not screen: %+v", tc.k, wall, d)
		}
		if floor := max(3, tc.k); d.Survivors < floor || d.Survivors >= tc.m {
			t.Errorf("order %d: %d survivors, want [%d, %d)", tc.k, d.Survivors, floor, tc.m)
		}
		if want := combin.Pairs(tc.m); d.PairsScanned != want {
			t.Errorf("order %d: stage 1 scanned %d pairs, want C(%d,2) = %d", tc.k, d.PairsScanned, tc.m, want)
		}
		if want := combin.Binomial(d.Survivors, tc.k); rep.Combinations != want {
			t.Errorf("order %d: stage 2 searched %d combinations, want C(%d,%d) = %d", tc.k, rep.Combinations, d.Survivors, tc.k, want)
		}
		for _, want := range []string{"combinations/s measured", "projected", "stage 1", fmt.Sprintf("to %d survivors", d.Survivors)} {
			if !strings.Contains(d.Reason, want) {
				t.Errorf("order %d: reason %q does not name %q", tc.k, d.Reason, want)
			}
		}
	}
}

// TestScreenBudgetClampsToFloor: a budget too small even for the pair
// scan keeps the minimum viable survivor set — 3 SNPs, and k at order k —
// rather than declining, and flags the clamp. Order 2 declines instead
// (TestScreenBudgetDeclinesAtOrderTwo).
func TestScreenBudgetClampsToFloor(t *testing.T) {
	s := screenSession(t, 24, 256)
	for _, k := range []int{3, 4, 5} {
		rep, err := s.Search(context.Background(), trigene.WithOrder(k),
			trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: 1e-9}))
		if err != nil {
			t.Fatal(err)
		}
		d := rep.Screen
		if d == nil || d.Declined {
			t.Fatalf("order %d: floor-clamped budget declined: %+v", k, d)
		}
		if want := max(3, k); d.Survivors != want {
			t.Errorf("order %d: %d survivors, want the %d floor", k, d.Survivors, want)
		}
		if !strings.Contains(d.Reason, "floor") {
			t.Errorf("order %d: reason %q does not flag the clamp", k, d.Reason)
		}
	}
}

// TestScreenBudgetDeclinesAtOrderTwo: at order 2 stage 1 already scans
// every pair, so a screen can only add stage 2's re-scoring: whatever the
// budget, the screen declines, says why, and the search is the unscreened
// one.
func TestScreenBudgetDeclinesAtOrderTwo(t *testing.T) {
	s := screenSession(t, 24, 256)
	ctx := context.Background()
	base := []trigene.Option{trigene.WithOrder(2), trigene.WithTopK(5)}
	plain, err := s.Search(ctx, base...)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{1e-9, 1e-3, 1e6} {
		rep, err := s.Search(ctx, append(base, trigene.WithScreen(trigene.ScreenSpec{BudgetSeconds: budget}))...)
		if err != nil {
			t.Fatal(err)
		}
		if d := rep.Screen; d == nil || !d.Declined || d.Survivors != 0 || !strings.Contains(d.Reason, "order 2") {
			t.Errorf("budget %gs: %+v, want a decline naming order 2", budget, d)
		}
		sameRanking(t, fmt.Sprintf("budget %gs", budget), rep, plain)
	}
}

// TestScreenBudgetPricesOverflowingSpaces: a budget screen starts with
// the exhaustive search, so a space beyond int64 combinations, C(1734,7),
// is no longer priced: it is refused at the door, with or without a
// MaxSurvivors cap, and a MaxSurvivors screen alone is how it is searched.
func TestScreenBudgetPricesOverflowingSpaces(t *testing.T) {
	s := screenSession(t, 1734, 64)
	ctx := context.Background()
	for _, spec := range []trigene.ScreenSpec{{BudgetSeconds: 10}, {BudgetSeconds: 10, MaxSurvivors: 10}} {
		_, err := s.Search(ctx, trigene.WithOrder(7), trigene.WithScreen(spec))
		if err == nil || !strings.Contains(err.Error(), "more than an int64 counts") {
			t.Errorf("C(1734,7) under %+v: error %v, want the space refused", spec, err)
		}
	}
	rep, err := s.Search(ctx, trigene.WithOrder(7), trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if want := combin.Binomial(10, 7); rep.Combinations != want || rep.Screen == nil || rep.Screen.Survivors != 10 {
		t.Errorf("C(1734,7) screened to 10 survivors: %d combinations, %+v, want %d", rep.Combinations, rep.Screen, want)
	}
}
