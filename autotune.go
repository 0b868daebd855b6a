package trigene

import (
	"fmt"
	"runtime"

	"trigene/internal/plan"
)

// applyPlan runs the model-driven planner for an autotuned search and
// folds its decisions into the resolved configuration: the backend
// when the caller left it open, the approach default, the scheduler
// tile grain, and the heterogeneous split seeds. The resulting
// decision trace is attached to the Report as Report.Plan.
//
// Plans steer execution only — which engine runs and how the space is
// cut — never search semantics, so an autotuned Report is bit-exact
// with an untuned one (enforced by the shard-parity tests).
func (s *Session) applyPlan(cfg *searchConfig) error {
	w := plan.Workload{
		SNPs:      s.SNPs(),
		Samples:   s.Samples(),
		Order:     cfg.order,
		Objective: cfg.objName,
	}
	var cons plan.Constraints
	if cfg.backendSet {
		cons.Backend = cfg.backend.Name()
	}
	if cfg.approachSet {
		if _, isCPU := cfg.backend.(cpuBackend); isCPU {
			cons.Approach = cfg.approach.String()
		}
	}

	// The host description: the modeled device pair when the caller
	// chose the heterogeneous backend, the live machine otherwise (the
	// planner only places work on hardware the session will actually
	// drive; the simulated devices enter through an explicit backend).
	var h plan.Host
	if _, ok := cfg.backend.(heteroBackend); ok && cfg.backendSet {
		cpu, err := CPUByID("CI3")
		if err != nil {
			return err
		}
		gpu, err := GPUByID("GN1")
		if err != nil {
			return err
		}
		h = plan.Host{CPU: cpu, GPU: &gpu}
	} else {
		h = plan.LiveHost()
	}
	if cfg.workers > 0 {
		h.Workers = cfg.workers
	} else if h.Workers == 0 {
		h.Workers = runtime.GOMAXPROCS(0)
	}

	p, err := plan.Decide(w, h, cons)
	if err != nil {
		return fmt.Errorf("trigene: autotune: %w", err)
	}
	if !cfg.backendSet {
		be, err := ParseBackend(p.Backend)
		if err != nil {
			return fmt.Errorf("trigene: autotune: %w", err)
		}
		cfg.backend = be
	}
	if !cfg.approachSet {
		if a, err := ParseApproach(p.Approach); err == nil {
			cfg.plannedApproach = a
		}
	}
	cfg.planGrain = p.Grain
	cfg.planGPUGrains = p.GPUGrains
	cfg.planInfo = planInfoFrom(p)
	return nil
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
	w := plan.Workload{
		SNPs:      snps,
		Samples:   samples,
		Order:     cfg.order,
		Objective: cfg.objName,
	}
	var cons plan.Constraints
	if cfg.backendSet {
		cons.Backend = cfg.backend.Name()
	}
	h := plan.LiveHost()
	if cfg.workers > 0 {
		h.Workers = cfg.workers
	}
	d, err := plan.DecideScreen(w, h, cons, budgetSec)
	if err != nil {
		return nil, fmt.Errorf("trigene: screen planning: %w", err)
	}
	return &screenDecision{Survivors: d.Survivors, Decline: d.Decline, Reason: d.Reason}, nil
}

// planInfoFrom copies a planner decision into the Report's wire shape.
func planInfoFrom(p *plan.Plan) *PlanInfo {
	return &PlanInfo{
		Backend:               p.Backend,
		Approach:              p.Approach,
		Workers:               p.Workers,
		Grain:                 p.Grain,
		CPUFraction:           p.CPUFraction,
		GPUGrains:             p.GPUGrains,
		PredictedCPUGElems:    p.PredictedCPUGElems,
		PredictedGPUGElems:    p.PredictedGPUGElems,
		PredictedCombosPerSec: p.PredictedCombosPerSec,
		PredictedTilesPerSec:  p.PredictedTilesPerSec,
		CPUDevice:             p.CPUDevice,
		GPUDevice:             p.GPUDevice,
		Reason:                p.Reason,
	}
}
