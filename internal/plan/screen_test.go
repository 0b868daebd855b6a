package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"trigene/internal/combin"
)

// modelScreen fetches the model's wall-time projections for w by asking
// for a decision under an effectively unlimited budget (which always
// declines — exhaustive fits — but carries the predictions).
func modelScreen(t *testing.T, w Workload) *ScreenDecision {
	t.Helper()
	d, err := DecideScreen(w, hostCI3(), Constraints{}, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Decline {
		t.Fatalf("unlimited budget did not decline: %+v", d)
	}
	if d.PredictedExhaustiveSec <= 0 || d.PredictedStage1Sec <= 0 {
		t.Fatalf("no usable projections: %+v", d)
	}
	return d
}

// TestScreenPairRateFollowsCountedCells: the model charges a pair and a
// triple by the cells their kernels counted when the factor was set — 4
// against 18 — so one scanned pair is predicted at 4/18 of one searched
// triple. The factor is a literal: a kernel that counts fewer cells (the
// triple lanes pass now counts 8) must not move it, and with it every
// budget-screen decision.
func TestScreenPairRateFollowsCountedCells(t *testing.T) {
	if screenPairRateFactor != 4.5 {
		t.Fatalf("screenPairRateFactor = %v, want the model constant 4.5", screenPairRateFactor)
	}
	model := modelScreen(t, wl)
	perTriple := model.PredictedExhaustiveSec / float64(combin.Triples(wl.SNPs))
	perPair := model.PredictedStage1Sec / float64(combin.Pairs(wl.SNPs))
	if got := perTriple / perPair; math.Abs(got-4.5) > 1e-9 {
		t.Errorf("a triple is modeled at %.4g pairs, want 18/4 = 4.5", got)
	}
}

// TestDecideScreenBudgetValidation: a screen cannot be sized for a
// non-positive budget.
func TestDecideScreenBudgetValidation(t *testing.T) {
	for _, budget := range []float64{0, -1.5} {
		if _, err := DecideScreen(wl, hostCI3(), Constraints{}, budget); err == nil {
			t.Errorf("budget %g accepted", budget)
		}
	}
}

// TestDecideScreenDeclinesWhenExhaustiveFits: when the exhaustive
// C(M,k) search already fits the budget, screening would only add the
// pair scan, so the planner declines and says why, at every order.
func TestDecideScreenDeclinesWhenExhaustiveFits(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		w := Workload{SNPs: wl.SNPs, Samples: wl.Samples, Order: k}
		model := modelScreen(t, w)
		d, err := DecideScreen(w, hostCI3(), Constraints{}, model.PredictedExhaustiveSec*2)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Decline {
			t.Fatalf("order %d: budget twice the exhaustive cost did not decline: %+v", k, d)
		}
		if d.Survivors != 0 {
			t.Errorf("order %d: declined decision carries a survivor budget %d", k, d.Survivors)
		}
		if want := fmt.Sprintf("exhaustive C(%d,%d) fits", w.SNPs, k); !strings.Contains(d.Reason, want) {
			t.Errorf("order %d: reason %q does not say %q", k, d.Reason, want)
		}
	}
}

// TestDecideScreenSizesUnderTightBudget: a budget well below the
// exhaustive cost yields a real pruning decision — a survivor set
// strictly between the floor and M whose two-stage cost, C(M,2) pairs
// and C(S,k) combinations, fits the budget — and more budget never
// shrinks it.
func TestDecideScreenSizesUnderTightBudget(t *testing.T) {
	for _, k := range []int{3, 4} {
		w := Workload{SNPs: wl.SNPs, Samples: wl.Samples, Order: k}
		model := modelScreen(t, w)
		budget := model.PredictedExhaustiveSec / 100
		d, err := DecideScreen(w, hostCI3(), Constraints{}, budget)
		if err != nil {
			t.Fatal(err)
		}
		if d.Decline {
			t.Fatalf("order %d: tight budget declined: %s", k, d.Reason)
		}
		if d.Survivors <= max(minScreenSurvivors, k) || d.Survivors >= w.SNPs {
			t.Errorf("order %d: survivor budget %d outside (%d, %d)", k, d.Survivors, max(minScreenSurvivors, k), w.SNPs)
		}
		if total := d.PredictedStage1Sec + d.PredictedStage2Sec; total > budget {
			t.Errorf("order %d: predicted two-stage cost %.3gs exceeds the %.3gs budget", k, total, budget)
		}
		// S is the largest set that fits: one more SNP's C(S+1,k) does not.
		perComb := model.PredictedExhaustiveSec / float64(combin.Binomial(w.SNPs, k))
		if over := d.PredictedStage1Sec + float64(combin.Binomial(d.Survivors+1, k))*perComb; over <= budget {
			t.Errorf("order %d: %d survivors would also fit (%.3gs)", k, d.Survivors+1, over)
		}
		if d.Reason == "" {
			t.Error("sized decision has no reason")
		}

		// Monotonicity: ten times the budget affords at least as many
		// survivors.
		wide, err := DecideScreen(w, hostCI3(), Constraints{}, budget*10)
		if err != nil {
			t.Fatal(err)
		}
		if wide.Decline {
			t.Fatalf("order %d: 10x budget declined: %s", k, wide.Reason)
		}
		if wide.Survivors < d.Survivors {
			t.Errorf("order %d: 10x budget shrank the survivor set: %d -> %d", k, d.Survivors, wide.Survivors)
		}
	}
}

// TestDecideScreenClampsToFloor: a budget too small even for the pair
// scan keeps the minimum viable survivor set — 3 SNPs, and k at order
// k — rather than declining (screening still beats exhaustive search
// here), and flags the clamp. Order 2 declines instead
// (TestDecideScreenDeclinesAtOrderTwo).
func TestDecideScreenClampsToFloor(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		w := Workload{SNPs: wl.SNPs, Samples: wl.Samples, Order: k}
		model := modelScreen(t, w)
		d, err := DecideScreen(w, hostCI3(), Constraints{}, model.PredictedStage1Sec/2)
		if err != nil {
			t.Fatal(err)
		}
		if d.Decline {
			t.Fatalf("order %d: floor-clamped budget declined: %s", k, d.Reason)
		}
		if want := max(minScreenSurvivors, k); d.Survivors != want {
			t.Errorf("order %d: survivor budget %d, want the %d floor", k, d.Survivors, want)
		}
		if !strings.Contains(d.Reason, "floor") {
			t.Errorf("order %d: reason %q does not flag the clamp", k, d.Reason)
		}
	}
}

// TestDecideScreenDeclinesAtOrderTwo: at order 2 stage 1 already scans
// every pair, so a screen can only add stage 2's re-scoring: whatever the
// budget below the exhaustive cost, the planner declines and says why.
func TestDecideScreenDeclinesAtOrderTwo(t *testing.T) {
	w := Workload{SNPs: wl.SNPs, Samples: wl.Samples, Order: 2}
	model := modelScreen(t, w)
	for _, budget := range []float64{model.PredictedStage1Sec / 2, model.PredictedExhaustiveSec / 100, model.PredictedExhaustiveSec / 2} {
		d, err := DecideScreen(w, hostCI3(), Constraints{}, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Decline || d.Survivors != 0 {
			t.Errorf("budget %.3gs: %+v, want a decline", budget, d)
		}
		if !strings.Contains(d.Reason, "order 2") {
			t.Errorf("budget %.3gs: reason %q does not name order 2", budget, d.Reason)
		}
	}
}

// TestDecideScreenPricesOverflowingSpaces: a space beyond int64
// combinations is priced, not panicked on: its exhaustive search never
// fits, and the screen is sized.
func TestDecideScreenPricesOverflowingSpaces(t *testing.T) {
	w := Workload{SNPs: 1734, Samples: 64, Order: 7}
	d, err := DecideScreen(w, hostCI3(), Constraints{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Decline || !math.IsInf(d.PredictedExhaustiveSec, 1) || d.Survivors < 7 || d.Survivors >= w.SNPs {
		t.Errorf("C(1734,7) under a 10 s budget: %+v, want +Inf exhaustive and a screen", d)
	}
}

// TestDecideScreenDeclinesWhenNothingPrunes: at M equal to the
// survivor floor, every budget that survives the exhaustive-fits
// check affords all SNPs, so screening cannot prune and the planner
// declines.
func TestDecideScreenDeclinesWhenNothingPrunes(t *testing.T) {
	tiny := Workload{SNPs: minScreenSurvivors, Samples: 1024}
	probe, err := DecideScreen(tiny, hostCI3(), Constraints{}, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecideScreen(tiny, hostCI3(), Constraints{}, probe.PredictedExhaustiveSec/2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Decline {
		t.Fatalf("un-prunable workload did not decline: %+v", d)
	}
	if !strings.Contains(d.Reason, "cannot prune") {
		t.Errorf("reason %q does not explain the decline", d.Reason)
	}
}
