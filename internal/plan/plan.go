// Package plan prices a search configuration with the paper's
// analytical machinery — the CARM characterization (internal/carm) and
// the per-approach throughput models (internal/perfmodel).
//
// The planner chooses neither the kernel nor the device: the caller
// names the backend and the CPU approach the search runs (Constraints),
// and the planner predicts their throughput on a host description (a
// Table I CPU, or the live host's synthesized model). No search reads
// the prediction: a budget screen (ScreenSpec.BudgetSeconds) is priced by
// the rate its own exhaustive search measures. The benchmark harness is
// the package's one reader, comparing Decide's CPU rate with the
// measured one (plan.pred_over_measured).
package plan

import (
	"fmt"
	"strings"

	"trigene/internal/carm"
	"trigene/internal/device"
	"trigene/internal/perfmodel"
)

// Workload is the search shape a plan is computed for.
type Workload struct {
	// SNPs and Samples are the dataset dimensions.
	SNPs, Samples int
	// Order is the interaction order (0 = 3).
	Order int
	// Objective names the ranking criterion; informational (objectives
	// cost the same per the paper's accounting).
	Objective string
}

// Host describes the CPU a plan prices.
type Host struct {
	// CPU is the CPU device model (a Table I entry or device.Host()).
	CPU device.CPU
}

// LiveHost probes the running machine: the synthesized device.Host()
// CPU model.
func LiveHost() Host {
	return Host{CPU: device.Host()}
}

// Constraints names the configuration the search runs; the planner
// prices it and chooses nothing.
type Constraints struct {
	// Backend is the execution engine by its public name ("cpu",
	// "baseline", "hetero", "gpusim:<ID>"); empty is "cpu". A gpusim
	// backend is priced on its Table II device, hetero on GN1 beside
	// the host CPU.
	Backend string
	// Approach is the engine number of the CPU kernel the search runs
	// (1..4 for V1..V4, 5 for V3F, 6 for V4F): the whole run on cpu
	// and baseline, the CPU half of hetero. 0 is the engine default,
	// V4F. A gpusim plan ignores it.
	Approach int
}

// defaultApproach is the engine's default CPU kernel, V4F.
const defaultApproach = 6

// Plan is the modeled throughput of one configuration.
type Plan struct {
	// Backend is the engine priced.
	Backend string
	// PredictedCPUGElems is the modeled CPU engine throughput in G
	// elements/s, capped by the device's roofline ceiling at the
	// approach's intensity; 0 on a gpusim plan.
	PredictedCPUGElems float64
	// PredictedCombosPerSec is the combined CPU and GPU rate in
	// combinations per second.
	PredictedCombosPerSec float64
}

// Decide computes the plan for a workload on a host under the given
// constraints.
func Decide(w Workload, h Host, c Constraints) (*Plan, error) {
	order := w.Order
	if order == 0 {
		order = 3
	}
	if order < 2 {
		return nil, fmt.Errorf("plan: invalid order %d", order)
	}
	if w.SNPs < order || w.Samples < 1 {
		return nil, fmt.Errorf("plan: implausible workload %d SNPs x %d samples for order %d", w.SNPs, w.Samples, order)
	}
	if h.CPU.ID == "" {
		return nil, fmt.Errorf("plan: host has no CPU model")
	}

	backend := c.Backend
	if backend == "" {
		backend = "cpu"
	}
	p := &Plan{Backend: backend}

	// The device side: a gpusim backend names its device; hetero runs
	// beside its pairing, GN1.
	gpuID, gpusim := strings.CutPrefix(backend, "gpusim:")
	if backend == "hetero" {
		gpuID = "GN1"
	}
	var cpuRate, gpuRate float64
	if gpusim || backend == "hetero" {
		g, err := device.GPUByID(gpuID)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		gpuRate = perfmodel.GPUOverallGElemPerSec(g, w.SNPs, w.Samples)
		gpuRate = carm.CapElemRate(carm.GPUModel(g), perfmodel.GPUCost(), gpuRate)
	}

	// The CPU side prices the kernel the search runs, capped by the
	// device roofline at that kernel's intensity.
	if !gpusim {
		approach := c.Approach
		if approach == 0 {
			approach = defaultApproach
		}
		r, err := perfmodel.CPUApproachGElemPerSec(h.CPU, approach, true, w.SNPs, w.Samples)
		if err != nil {
			return nil, err
		}
		cost, err := perfmodel.CostOf(approach)
		if err != nil {
			return nil, err
		}
		cpuRate = carm.CapElemRate(carm.CPUModel(h.CPU, true), cost, r)
	}

	p.PredictedCPUGElems = cpuRate
	p.PredictedCombosPerSec = (cpuRate + gpuRate) * 1e9 / float64(w.Samples)
	return p, nil
}
