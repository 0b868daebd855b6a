// Package plan is the model-driven autotuner: it turns the paper's
// analytical machinery — the CARM characterization (internal/carm) and
// the per-approach throughput models (internal/perfmodel) — into
// executable decisions for the live execution layers.
//
// The planner takes a search shape (SNPs, samples, order, objective)
// and a host description (a Table I/II device pair, or a live-host
// probe) and produces a Plan: the chosen backend and approach, the
// predicted throughput of each engine, the model-seeded CPU/GPU split
// of a heterogeneous run, and the ranks-per-claim tile grain for the
// scheduler's consumers. Every layer then consumes the
// Plan instead of a magic constant: sched sizes tiles from it, hetero
// seeds its work-stealing grain and claim ratio from it, and
// the cluster coordinator weights lease sizes by the same capability
// currency.
//
// Plans steer only *execution* parameters (which engine, how work is
// cut and placed), never *search semantics*: a planned run returns a
// Report bit-exact with an unplanned one, which the shard-parity tests
// enforce across every backend.
package plan

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"trigene/internal/carm"
	"trigene/internal/combin"
	"trigene/internal/device"
	"trigene/internal/perfmodel"
	"trigene/internal/sched"
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

// Host describes the hardware a plan targets.
type Host struct {
	// CPU is the CPU device model (a Table I entry or device.Host()).
	CPU device.CPU
	// GPU, when non-nil, is an accelerator the planner may place work
	// on (a Table II entry; executed by the simulator in this repo).
	GPU *device.GPU
	// Workers is the CPU worker-pool size (0 = CPU.TotalCores()).
	Workers int
}

// LiveHost probes the running machine: the synthesized device.Host()
// CPU model, no accelerator, and the Go runtime's processor count as
// the pool size.
func LiveHost() Host {
	return Host{CPU: device.Host(), Workers: runtime.GOMAXPROCS(0)}
}

// Constraints pins decisions the caller has already made; the planner
// fills in everything else.
type Constraints struct {
	// Backend pins the execution engine by its public name ("cpu",
	// "baseline", "hetero", "gpusim:<ID>"). Empty lets the planner
	// choose from the host description.
	Backend string
	// Approach pins the CPU pipeline ("V1".."V4", or the fused
	// "V3F"/"V4F", also accepted as "V5"/"V6"). Empty lets the model
	// pick the winning kernel for the device.
	Approach string
}

// Plan is one executable set of decisions.
type Plan struct {
	// Backend and Approach are the chosen engine and pipeline.
	Backend, Approach string
	// Workers is the CPU pool size the predictions assume.
	Workers int
	// Grain is the scheduler tile size in ranks per claim, sized so
	// one claim costs a few milliseconds at the predicted per-consumer
	// rate (clamped to sched's [MinGrain, MaxGrain]).
	Grain int64
	// CPUFraction is the modeled CPU share of the work: 1 on pure CPU
	// plans, 0 on pure GPU plans, the throughput-proportional split on
	// heterogeneous ones (what the work-stealing run is expected to
	// realize; the run itself is seeded by Grain and GPUGrains).
	CPUFraction float64
	// GPUGrains is the device consumer's claim multiplier on a shared
	// work-stealing cursor: how many CPU-sized grains one device claim
	// should span so both sides finish together.
	GPUGrains int64

	// PredictedCPUGElems and PredictedGPUGElems are the modeled engine
	// throughputs in G elements/s, each capped
	// by the device's roofline ceiling at the approach's intensity.
	PredictedCPUGElems, PredictedGPUGElems float64
	// PredictedCombosPerSec and PredictedTilesPerSec restate the
	// combined rate in scheduler currency: combinations (and Grain-
	// sized tiles) per second across the whole host.
	PredictedCombosPerSec, PredictedTilesPerSec float64

	// CPUDevice and GPUDevice name the device models consulted.
	CPUDevice, GPUDevice string
	// Reason is the human-readable decision trace.
	Reason string
}

// heteroRatio is the placement threshold: a device pair runs
// heterogeneously only while neither side is modeled at more than
// heteroRatio times the other (beyond that, the slow side's
// contribution is noise and its coordination overhead is not).
const heteroRatio = 10

// tileSeconds is the target wall time of one claimed tile at the
// predicted per-consumer rate: long enough to amortize claim overhead,
// short enough for balance and cancellation latency.
const tileSeconds = 0.004

// maxGPUGrains bounds the device claim multiplier on a shared cursor.
const maxGPUGrains = 64

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

	p := &Plan{Workers: workers, CPUDevice: h.CPU.ID}

	// A gpusim constraint names its device; it overrides (or supplies)
	// the host's accelerator so the prediction matches what will run.
	gpu := h.GPU
	if strings.HasPrefix(c.Backend, "gpusim:") {
		g, err := device.GPUByID(strings.TrimPrefix(c.Backend, "gpusim:"))
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		gpu = &g
	}
	if (c.Backend == "hetero") && gpu == nil {
		g, err := device.GPUByID("GN1") // the hetero backend's default pairing
		if err != nil {
			return nil, err
		}
		gpu = &g
	}

	// CPU side: the model picks the winning kernel (Figure 2 computed),
	// capped by the device roofline at the kernel's intensity.
	cpuApproach, cpuRate := perfmodel.BestCPUApproach(h.CPU, true, w.SNPs, w.Samples)
	if order != 3 {
		// Orders 2 and 4+ run the flat split kernel; V3/V4 tiling is
		// specialized to triples.
		cpuApproach = 2
		r, err := perfmodel.CPUApproachGElemPerSec(h.CPU, 2, true, w.SNPs, w.Samples)
		if err != nil {
			return nil, err
		}
		cpuRate = r
	}
	if c.Backend == "baseline" {
		// The MPI3SNP-style comparator is a fixed V1-like pipeline.
		cpuApproach = 1
		r, err := perfmodel.CPUApproachGElemPerSec(h.CPU, 1, true, w.SNPs, w.Samples)
		if err != nil {
			return nil, err
		}
		cpuRate = r
	}
	if c.Approach != "" {
		a, err := parseApproach(c.Approach)
		if err != nil {
			return nil, err
		}
		cpuApproach = a
		r, err := perfmodel.CPUApproachGElemPerSec(h.CPU, a, true, w.SNPs, w.Samples)
		if err != nil {
			return nil, err
		}
		cpuRate = r
	}
	cpuCost, err := perfmodel.CostOf(cpuApproach)
	if err != nil {
		return nil, err
	}
	cpuRate = carm.CapElemRate(carm.CPUModel(h.CPU, true), cpuCost, cpuRate)

	// GPU side, when an accelerator is in play.
	var gpuRate float64
	if gpu != nil {
		gpuRate = perfmodel.GPUOverallGElemPerSec(*gpu, w.SNPs, w.Samples)
		gpuRate = carm.CapElemRate(carm.GPUModel(*gpu), perfmodel.GPUCost(), gpuRate)
		p.GPUDevice = gpu.ID
	}

	// Placement: honor a pinned backend, otherwise compare the sides.
	var reasons []string
	backend := c.Backend
	if backend == "" {
		switch {
		case gpu == nil || gpuRate <= 0:
			backend = "cpu"
		case cpuRate*heteroRatio < gpuRate:
			backend = "gpusim:" + gpu.ID
		case gpuRate*heteroRatio < cpuRate:
			backend = "cpu"
		default:
			backend = "hetero"
		}
	}
	p.Backend = backend

	// Per-backend shaping: split, approach label, consumer count.
	consumers := workers
	switch {
	case backend == "hetero":
		p.CPUFraction = cpuRate / (cpuRate + gpuRate)
		p.Approach = perfmodel.ApproachName(cpuApproach)
		perWorker := cpuRate / float64(workers)
		g := int64(gpuRate/perWorker + 0.5)
		if g < 1 {
			g = 1
		}
		if g > maxGPUGrains {
			g = maxGPUGrains
		}
		p.GPUGrains = g
		consumers = workers + 1
		reasons = append(reasons, fmt.Sprintf("split %s:%s at %.0f%% CPU by modeled throughput", h.CPU.ID, gpu.ID, 100*p.CPUFraction))
	case strings.HasPrefix(backend, "gpusim:"):
		p.CPUFraction = 0
		p.Approach = "V4" // the winning GPU kernel on every Table II device
		reasons = append(reasons, fmt.Sprintf("device %s alone: modeled %.1fx the CPU", gpu.ID, ratio(gpuRate, cpuRate)))
		cpuRate = 0
		consumers = 1
	case backend == "baseline":
		p.CPUFraction = 1
		p.Approach = "mpi3snp"
		gpuRate = 0
	default: // cpu
		p.CPUFraction = 1
		p.Approach = perfmodel.ApproachName(cpuApproach)
		gpuRate = 0
		reasons = append(reasons, fmt.Sprintf("%s picks %s at %.3g G elem/s modeled", h.CPU.ID, p.Approach, cpuRate))
	}
	p.PredictedCPUGElems = cpuRate
	p.PredictedGPUGElems = gpuRate

	// Scheduler currency: combos/sec over the whole host, tiles sized
	// for ~tileSeconds per claim per consumer, never coarser than the
	// claims-per-consumer heuristic would cut for the space.
	total := combin.Binomial(w.SNPs, order)
	combosPerSec := (cpuRate + gpuRate) * 1e9 / float64(w.Samples)
	p.PredictedCombosPerSec = combosPerSec
	grain := int64(combosPerSec / float64(consumers) * tileSeconds)
	if auto := sched.AutoGrain(total, consumers); grain > auto {
		grain = auto
	}
	if grain < sched.MinGrain {
		grain = sched.MinGrain
	}
	if grain > sched.MaxGrain {
		grain = sched.MaxGrain
	}
	p.Grain = grain
	p.PredictedTilesPerSec = combosPerSec / float64(grain)
	p.Reason = strings.Join(reasons, "; ")
	return p, nil
}

// ratio guards the x/y display ratio against a zero denominator.
func ratio(x, y float64) float64 {
	if y <= 0 {
		return math.Inf(1)
	}
	return x / y
}

// parseApproach accepts "V1".."V4", the fused "V3F"/"V4F" (or their
// numeric wire forms "V5"/"V6") and bare digits for Constraints.
func parseApproach(s string) (int, error) {
	t := strings.TrimPrefix(strings.ToUpper(strings.TrimSpace(s)), "V")
	switch t {
	case "1", "2", "3", "4", "5", "6":
		return int(t[0] - '0'), nil
	case "3F":
		return 5, nil
	case "4F":
		return 6, nil
	}
	return 0, fmt.Errorf("plan: unknown approach %q (want V1..V4 or V3F/V4F)", s)
}
