package plan

import (
	"math"
	"strings"
	"testing"

	"trigene/internal/combin"
)

// modelScreen fetches the model's wall-time projections for wl by
// asking for a decision under an effectively unlimited budget (which
// always declines — exhaustive fits — but carries the predictions).
func modelScreen(t *testing.T) *ScreenDecision {
	t.Helper()
	d, err := DecideScreen(wl, hostCI3(), Constraints{}, 1e12)
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
	model := modelScreen(t)
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
// C(M,3) search already fits the budget, screening would only add the
// pair scan, so the planner declines and says why.
func TestDecideScreenDeclinesWhenExhaustiveFits(t *testing.T) {
	model := modelScreen(t)
	d, err := DecideScreen(wl, hostCI3(), Constraints{}, model.PredictedExhaustiveSec*2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Decline {
		t.Fatalf("budget twice the exhaustive cost did not decline: %+v", d)
	}
	if d.Survivors != 0 {
		t.Errorf("declined decision carries a survivor budget %d", d.Survivors)
	}
	if !strings.Contains(d.Reason, "fits") {
		t.Errorf("reason %q does not explain the decline", d.Reason)
	}
}

// TestDecideScreenSizesUnderTightBudget: a budget well below the
// exhaustive cost yields a real pruning decision — a survivor set
// strictly between the floor and M whose two-stage cost fits the
// budget — and more budget never shrinks it.
func TestDecideScreenSizesUnderTightBudget(t *testing.T) {
	model := modelScreen(t)
	budget := model.PredictedExhaustiveSec / 100
	d, err := DecideScreen(wl, hostCI3(), Constraints{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if d.Decline {
		t.Fatalf("tight budget declined: %s", d.Reason)
	}
	if d.Survivors < minScreenSurvivors || d.Survivors >= wl.SNPs {
		t.Errorf("survivor budget %d outside (%d, %d)", d.Survivors, minScreenSurvivors, wl.SNPs)
	}
	if total := d.PredictedStage1Sec + d.PredictedStage2Sec; total > budget {
		t.Errorf("predicted two-stage cost %.3gs exceeds the %.3gs budget", total, budget)
	}
	if d.Reason == "" {
		t.Error("sized decision has no reason")
	}

	// Monotonicity: ten times the budget affords at least as many
	// survivors.
	wide, err := DecideScreen(wl, hostCI3(), Constraints{}, budget*10)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Decline {
		t.Fatalf("10x budget declined: %s", wide.Reason)
	}
	if wide.Survivors < d.Survivors {
		t.Errorf("10x budget shrank the survivor set: %d -> %d", d.Survivors, wide.Survivors)
	}
}

// TestDecideScreenClampsToFloor: a budget too small even for the pair
// scan keeps the minimum viable survivor set rather than declining —
// screening still beats exhaustive search here — and flags the clamp.
func TestDecideScreenClampsToFloor(t *testing.T) {
	model := modelScreen(t)
	d, err := DecideScreen(wl, hostCI3(), Constraints{}, model.PredictedStage1Sec/2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Decline {
		t.Fatalf("floor-clamped budget declined: %s", d.Reason)
	}
	if d.Survivors != minScreenSurvivors {
		t.Errorf("survivor budget %d, want the %d floor", d.Survivors, minScreenSurvivors)
	}
	if !strings.Contains(d.Reason, "floor") {
		t.Errorf("reason %q does not flag the clamp", d.Reason)
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
