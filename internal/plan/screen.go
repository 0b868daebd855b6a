package plan

import (
	"fmt"

	"trigene/internal/combin"
)

// Two-stage cost model: should a search screen, and at what survivor
// budget? The decision compares the modeled cost of exhaustive C(M,3)
// search against stage-1 C(M,2) + stage-2 C(S,3) under a wall-time
// budget, using the same per-approach throughput predictions the
// single-stage planner runs on. Like every Plan, the decision steers
// execution shape only — what the screened run searches is decided by
// the screen's own semantics, and the decision is audited in the
// Report.

// screenPairRateFactor models the stage-1 pair kernel relative to the
// triple kernel the throughput predictions describe: pairs scan this many
// times faster per combination. It is a model constant, not a count read
// off the kernels. It was set when both kernels were bound by the
// AND+POPCNT they issue per sample word and a triple counted 18 of its 27
// cells against a pair's 4 of 9: 18/4 = 4.5, not the 27/9 = 3 of cell
// counts alone. The triple lanes pass now counts 8 cells per (y, z) and
// derives 19 from pair counts it makes once per chunk and run
// (contingency.TripleCounted), but its cost per combination is no longer
// proportional to that count, and the throughput predictions this factor
// scales have not been recalibrated to it. So the factor stays where it
// was, and with it every budget-screen decision and Report.Plan; taking
// it from a measurement is the planner's calibration work, not a change
// of a kernel.
const screenPairRateFactor = 4.5

// minScreenSurvivors floors the survivor budget: below 3 SNPs stage 2
// has no triples to search.
const minScreenSurvivors = 3

// ScreenDecision is the planner's verdict on a budget-only screen.
type ScreenDecision struct {
	// Survivors is the chosen budget S (0 when Decline).
	Survivors int
	// Decline reports that screening loses (or cannot prune) at this
	// workload: run exhaustively instead. Reason says why either way.
	Decline bool
	Reason  string
	// Predicted*Sec are the model's wall-time projections.
	PredictedExhaustiveSec float64
	PredictedStage1Sec     float64
	PredictedStage2Sec     float64
}

// DecideScreen sizes a screen for the workload under a wall-time
// budget in seconds: the largest survivor set whose stage-1 + stage-2
// cost fits, or a decline when exhaustive search already fits (the
// space is small enough that screening only adds the pair scan) or
// when the affordable budget covers every SNP (nothing would prune).
func DecideScreen(w Workload, h Host, c Constraints, budgetSec float64) (*ScreenDecision, error) {
	if budgetSec <= 0 {
		return nil, fmt.Errorf("plan: screen budget must be positive seconds, got %g", budgetSec)
	}
	p, err := Decide(w, h, c)
	if err != nil {
		return nil, err
	}
	combosPerSec := p.PredictedCombosPerSec
	if combosPerSec <= 0 {
		return nil, fmt.Errorf("plan: no modeled throughput for %s; cannot size a screen", p.Backend)
	}
	m := w.SNPs
	d := &ScreenDecision{
		PredictedExhaustiveSec: float64(combin.Triples(m)) / combosPerSec,
		PredictedStage1Sec:     float64(combin.Pairs(m)) / (combosPerSec * screenPairRateFactor),
	}
	if d.PredictedExhaustiveSec <= budgetSec {
		d.Decline = true
		d.Reason = fmt.Sprintf("exhaustive C(%d,3) fits the %.3gs budget (predicted %.3gs); a screen would only add the pair scan",
			m, budgetSec, d.PredictedExhaustiveSec)
		return d, nil
	}
	s := minScreenSurvivors
	clamped := false
	if remaining := budgetSec - d.PredictedStage1Sec; remaining > 0 {
		s = maxSurvivorsWithin(int64(remaining*combosPerSec), m)
	} else {
		clamped = true
	}
	if s < minScreenSurvivors {
		s = minScreenSurvivors
		clamped = true
	}
	if s >= m {
		d.Decline = true
		d.Reason = fmt.Sprintf("the %.3gs budget affords all %d SNPs as survivors; screening cannot prune", budgetSec, m)
		return d, nil
	}
	d.Survivors = s
	d.PredictedStage2Sec = float64(combin.Triples(s)) / combosPerSec
	d.Reason = fmt.Sprintf("screen %d SNPs to %d survivors: predicted stage 1 %.3gs + stage 2 %.3gs against exhaustive %.3gs",
		m, s, d.PredictedStage1Sec, d.PredictedStage2Sec, d.PredictedExhaustiveSec)
	if clamped {
		d.Reason += " (budget below the screen floor; kept the minimum survivor set)"
	}
	return d, nil
}

// maxSurvivorsWithin returns the largest s <= bound with
// C(s,3) <= target triples (at least minScreenSurvivors - 1 = 2, so
// callers can detect the floor).
func maxSurvivorsWithin(target int64, bound int) int {
	if target < 1 {
		return minScreenSurvivors - 1
	}
	lo, hi := minScreenSurvivors-1, bound
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if combin.Triples(mid) <= target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
