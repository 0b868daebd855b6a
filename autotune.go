package trigene

import (
	"fmt"

	"trigene/internal/plan"
)

// applyPlan prices an autotuned search with the planner and keeps the
// price for the Report (Report.Plan). The backend and approach stay
// what the caller chose or the backend defaults to, and the scheduler
// cuts the space as it would untuned, so an autotuned Report is
// bit-exact with an untuned one apart from its plan block.
func (s *Session) applyPlan(cfg *searchConfig) error {
	// Hetero's models describe its device pairing, CI3 beside GN1; every
	// other backend is priced on the live machine.
	h := plan.LiveHost()
	if _, ok := cfg.backend.(heteroBackend); ok {
		cpu, err := CPUByID("CI3")
		if err != nil {
			return err
		}
		h.CPU = cpu
	}
	if cfg.workers > 0 {
		h.Workers = cfg.workers
	}
	w, cons := planRequest(s.SNPs(), s.Samples(), cfg)
	p, err := plan.Decide(w, h, cons)
	if err != nil {
		return fmt.Errorf("trigene: autotune: %w", err)
	}
	cfg.planInfo = planInfoFrom(p)
	return nil
}

// planRequest describes the configured search to the planner: its
// shape, and the backend and CPU approach that will run it.
func planRequest(snps, samples int, cfg *searchConfig) (plan.Workload, plan.Constraints) {
	w := plan.Workload{
		SNPs:      snps,
		Samples:   samples,
		Order:     cfg.order,
		Objective: cfg.objName,
	}
	return w, plan.Constraints{Backend: cfg.backend.Name(), Approach: int(cfg.cpuApproach())}
}

// screenDecision is the session-side shape of the planner's two-stage
// verdict (plan.ScreenDecision).
type screenDecision struct {
	Survivors int
	Decline   bool
	Reason    string
}

// planScreen consults the planner's two-stage cost model for a
// budget-only screen: the largest survivor set whose stage-1 + stage-2
// cost fits the budget, or a decline when screening loses.
func planScreen(snps, samples int, cfg *searchConfig, budgetSec float64) (*screenDecision, error) {
	h := plan.LiveHost()
	if cfg.workers > 0 {
		h.Workers = cfg.workers
	}
	w, cons := planRequest(snps, samples, cfg)
	d, err := plan.DecideScreen(w, h, cons, budgetSec)
	if err != nil {
		return nil, fmt.Errorf("trigene: screen planning: %w", err)
	}
	return &screenDecision{Survivors: d.Survivors, Decline: d.Decline, Reason: d.Reason}, nil
}

// planInfoFrom copies a planner decision into the Report's wire shape;
// Backend and Approach are filled from the run's Report.
func planInfoFrom(p *plan.Plan) *PlanInfo {
	return &PlanInfo{
		Workers:               p.Workers,
		CPUFraction:           p.CPUFraction,
		PredictedCPUGElems:    p.PredictedCPUGElems,
		PredictedGPUGElems:    p.PredictedGPUGElems,
		PredictedCombosPerSec: p.PredictedCombosPerSec,
		CPUDevice:             p.CPUDevice,
		GPUDevice:             p.GPUDevice,
		Reason:                p.Reason,
	}
}
