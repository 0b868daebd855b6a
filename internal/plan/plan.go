// Package plan prices a search configuration with the paper's
// analytical machinery — the CARM characterization (internal/carm) and
// the per-approach throughput models (internal/perfmodel).
//
// The planner chooses neither the kernel nor the device: the caller
// names the backend and the CPU approach the search runs (Constraints),
// and the planner predicts their throughput on a host description (a
// Table I CPU, or the live host's synthesized model). The prediction
// is reported (Report.Plan) and sizes budget-only screens
// (DecideScreen); it does not cut the run. The scheduler sizes every
// claim from the run's own inputs (sched.AutoGrain), so a planned run
// claims the same tiles as an unplanned one and returns a bit-exact
// Report, which the shard-parity tests enforce across every backend.
package plan

import (
	"fmt"
	"runtime"
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
	// Workers is the CPU worker-pool size (0 = CPU.TotalCores()).
	Workers int
}

// LiveHost probes the running machine: the synthesized device.Host()
// CPU model and the Go runtime's processor count as the pool size.
func LiveHost() Host {
	return Host{CPU: device.Host(), Workers: runtime.GOMAXPROCS(0)}
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

// Plan is one executable set of decisions.
type Plan struct {
	// Backend is the engine priced; Approach names the CPU kernel the
	// prediction prices ("V1".."V4", "V3F", "V4F"), empty on a gpusim
	// plan.
	Backend, Approach string
	// Workers is the CPU pool size the predictions assume.
	Workers int
	// CPUFraction is the modeled CPU share of the work: 1 on CPU
	// plans, 0 on gpusim plans, the throughput-proportional split on
	// hetero ones (what the work-stealing run is expected to realize).
	CPUFraction float64

	// PredictedCPUGElems and PredictedGPUGElems are the modeled engine
	// throughputs in G elements/s, each capped
	// by the device's roofline ceiling at the approach's intensity.
	PredictedCPUGElems, PredictedGPUGElems float64
	// PredictedCombosPerSec restates the combined rate as
	// combinations per second across the whole host.
	PredictedCombosPerSec float64

	// CPUDevice and GPUDevice name the device models consulted.
	CPUDevice, GPUDevice string
	// Reason is the human-readable decision trace.
	Reason string
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
	workers := h.Workers
	if workers < 1 {
		workers = h.CPU.TotalCores()
	}
	if workers < 1 {
		workers = 1
	}

	backend := c.Backend
	if backend == "" {
		backend = "cpu"
	}
	p := &Plan{Backend: backend, Workers: workers, CPUDevice: h.CPU.ID}

	// The device side: a gpusim backend names its device; hetero runs
	// beside its pairing, GN1.
	var gpu *device.GPU
	id, gpusim := strings.CutPrefix(backend, "gpusim:")
	switch {
	case gpusim:
		g, err := device.GPUByID(id)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		gpu = &g
	case backend == "hetero":
		g, err := device.GPUByID("GN1")
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		gpu = &g
	}
	var cpuRate, gpuRate float64
	if gpu != nil {
		gpuRate = perfmodel.GPUOverallGElemPerSec(*gpu, w.SNPs, w.Samples)
		gpuRate = carm.CapElemRate(carm.GPUModel(*gpu), perfmodel.GPUCost(), gpuRate)
		p.GPUDevice = gpu.ID
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
		p.Approach = perfmodel.ApproachName(approach)
	}

	switch {
	case backend == "hetero":
		p.CPUFraction = cpuRate / (cpuRate + gpuRate)
		p.Reason = fmt.Sprintf("split %s %s + %s at %.0f%% CPU by modeled throughput", h.CPU.ID, p.Approach, gpu.ID, 100*p.CPUFraction)
	case gpusim:
		p.Reason = fmt.Sprintf("%s runs alone at %.3g G elem/s modeled", gpu.ID, gpuRate)
	default:
		p.CPUFraction = 1
		p.Reason = fmt.Sprintf("%s runs %s at %.3g G elem/s modeled", h.CPU.ID, p.Approach, cpuRate)
	}
	p.PredictedCPUGElems = cpuRate
	p.PredictedGPUGElems = gpuRate
	p.PredictedCombosPerSec = (cpuRate + gpuRate) * 1e9 / float64(w.Samples)
	return p, nil
}
