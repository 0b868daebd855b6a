package plan

import (
	"fmt"
	"math"

	"trigene/internal/combin"
)

// Two-stage cost model: should a search screen, and at what survivor
// budget? The decision compares the modeled cost of exhaustive C(M,k)
// search against stage-1 C(M,2) + stage-2 C(S,k) under a wall-time
// budget, using the same per-approach throughput predictions Decide
// makes. The decision sizes the screen only — what the screened run
// searches is decided by the screen's own semantics — and the Report's
// screen audit records it.

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
// was, and with it every budget-screen decision; taking
// it from a measurement is the planner's calibration work, not a change
// of a kernel.
const screenPairRateFactor = 4.5

// minScreenSurvivors floors the survivor budget at every order: a screen
// keeps at least 3 SNPs, and at least k at order k, which stage 2 needs
// for one combination.
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
// cost fits, or a decline at order 2 (stage 1 is the exhaustive search),
// when exhaustive search already fits (the space is small enough that
// screening only adds the pair scan) or when the affordable budget covers
// every SNP (nothing would prune).
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
	order := w.Order
	if order == 0 {
		order = 3
	}
	m := w.SNPs
	// A space beyond int64 combinations never fits a budget: the
	// exhaustive search is priced at +Inf.
	exhaustive := math.Inf(1)
	if c, ok := combin.BinomialChecked(m, order); ok {
		exhaustive = float64(c) / combosPerSec
	}
	d := &ScreenDecision{
		PredictedExhaustiveSec: exhaustive,
		PredictedStage1Sec:     float64(combin.Pairs(m)) / (combosPerSec * screenPairRateFactor),
	}
	if d.PredictedExhaustiveSec <= budgetSec {
		d.Decline = true
		d.Reason = fmt.Sprintf("exhaustive C(%d,%d) fits the %.3gs budget (predicted %.3gs); a screen would only add the pair scan",
			m, order, budgetSec, d.PredictedExhaustiveSec)
		return d, nil
	}
	if order == 2 {
		d.Decline = true
		d.Reason = fmt.Sprintf("at order 2 the screen's stage 1 already is the exhaustive C(%d,2) pair search; stage 2 would only score pairs again", m)
		return d, nil
	}
	floor := max(minScreenSurvivors, order)
	s := floor - 1
	if remaining := budgetSec - d.PredictedStage1Sec; remaining > 0 {
		// The largest survivor set whose C(s,k) stage 2 fits what the
		// pair scan leaves of the budget.
		// (A budget past int64 combinations affords every SNP.)
		s = combin.InvBinomial(int64(min(remaining*combosPerSec, math.MaxInt64/2)), order, m+1)
	}
	clamped := s < floor
	if clamped {
		s = floor
	}
	if s >= m {
		d.Decline = true
		d.Reason = fmt.Sprintf("the %.3gs budget affords all %d SNPs as survivors; screening cannot prune", budgetSec, m)
		return d, nil
	}
	d.Survivors = s
	d.PredictedStage2Sec = float64(combin.Binomial(s, order)) / combosPerSec
	d.Reason = fmt.Sprintf("screen %d SNPs to %d survivors: predicted stage 1 %.3gs + stage 2 %.3gs against exhaustive %.3gs",
		m, s, d.PredictedStage1Sec, d.PredictedStage2Sec, d.PredictedExhaustiveSec)
	if clamped {
		d.Reason += " (budget below the screen floor; kept the minimum survivor set)"
	}
	return d, nil
}
