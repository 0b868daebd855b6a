// Package hetero implements the heterogeneous CPU+GPU execution mode
// the paper discusses in Section V-D (and that reference [30] builds):
// the CPU engine's workers and the (simulated) GPU consume the 3-way
// combination space concurrently and the results are merged.
//
// By default the two sides share one claiming cursor of the tile
// scheduler — true work-stealing: each side pulls the next tile when
// it finishes its last one, so a mis-modeled device ratio degrades
// into a slightly different split instead of idling half the machine.
// A fixed CPUFraction instead splits the rank space statically at the
// throughput-proportional cut, which is what the paper's analytical
// Section V-D estimate describes.
package hetero

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/device"
	"trigene/internal/engine"
	"trigene/internal/gpusim"
	"trigene/internal/obs"
	"trigene/internal/perfmodel"
	"trigene/internal/sched"
	"trigene/internal/score"
	"trigene/internal/store"
	"trigene/internal/topk"
)

// Mode selects which sides of a heterogeneous run participate. It
// replaces the old "CPUFraction: -1 means all-GPU" sentinel: one-sided
// runs are first-class requests, not magic fraction values.
type Mode int

const (
	// ModeAuto (the zero value) runs both sides: work-stealing from a
	// shared cursor when CPUFraction is 0, a static split at
	// CPUFraction in (0, 1]. This is the only mode that consults
	// CPUFraction.
	ModeAuto Mode = iota
	// ModeAllCPU routes every rank to the CPU engine.
	ModeAllCPU
	// ModeAllGPU routes every rank to the simulated device.
	ModeAllGPU
)

// String names the mode in errors and logs.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeAllCPU:
		return "all-cpu"
	case ModeAllGPU:
		return "all-gpu"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a heterogeneous search.
type Options struct {
	// CPUDevice and GPUDevice select the modeled device pair for the
	// combined-throughput projection (and, with a fixed CPUFraction,
	// the static split ratio). Defaults: CI3 and GN1 (the paper's
	// Section V-D pairing).
	CPUDevice device.CPU
	GPUDevice device.GPU

	// Mode selects the participating sides (default ModeAuto: both).
	Mode Mode

	// CPUFraction fixes the fraction of combination ranks evaluated on
	// the CPU engine with a static split, and applies only in
	// ModeAuto. Zero means work-stealing: both sides pull tiles from
	// one shared cursor and the realized fraction is whatever the
	// hardware delivers. Negative values are rejected — request a
	// one-sided run with ModeAllGPU / ModeAllCPU instead.
	CPUFraction float64

	// Grain overrides the shared cursor's ranks-per-claim tile size on
	// a work-stealing run (0 = the AutoGrain heuristic). The planner
	// seeds it from the modeled per-consumer throughput.
	Grain int64
	// GPUGrains seeds the device consumer's claim-span multiplier on
	// the shared cursor (0 = 4, the legacy default). The planner sets
	// it to the modeled device/CPU-worker throughput ratio, and the
	// run's throughput meter refines it mid-search from measured
	// rates.
	GPUGrains int64

	// Searcher optionally supplies a prebuilt engine.Searcher over the
	// same dataset, reusing its precomputed binarized forms (a Session
	// holds one). Nil builds a fresh one.
	Searcher *engine.Searcher
	// Workers is the CPU engine pool size (0 = all cores).
	Workers int
	// TopK is how many ranked candidates to return (default 1). Both
	// sides keep full top-K lists; the merge is bit-exact.
	TopK int
	// Objective ranks candidates (default Bayesian K2).
	Objective score.Objective
	// Range restricts the search to combination ranks [Lo, Hi) — the
	// shard primitive. Nil means the full space.
	Range *combin.Range
	// Context optionally allows cancellation of both halves; nil means
	// context.Background().
	Context context.Context

	// Metrics optionally instruments the CPU half's engine run (tile
	// and combination counters, scheduler claim series); nil disables.
	Metrics *obs.Registry
}

// Result is the outcome of a heterogeneous search.
type Result struct {
	Best engine.Candidate
	// TopK holds up to Options.TopK candidates in best-first order,
	// merged from both sides under the shared objective-then-
	// lexicographic ordering.
	TopK []engine.Candidate

	// CPUFraction is the fraction of the evaluated ranks that ran on
	// the CPU engine: the realized work-stealing split, or the
	// configured one on a static run.
	CPUFraction float64
	// CPUStats/GPUStats describe the two halves. The CPU half is a real
	// host measurement; the GPU half carries the simulator's modeled
	// timing.
	CPUStats engine.Stats
	GPUStats gpusim.Stats

	// ModeledCombinedGElems is the device pair's projected joint
	// throughput (G elements/s) at this workload, the Section V-D
	// estimate.
	ModeledCombinedGElems float64

	// Grain is the shared cursor's ranks-per-claim on a work-stealing
	// run (0 on static runs, which have no cursor).
	Grain int64
	// MeasuredCPUCombosPerSec and MeasuredGPUCombosPerSec are the
	// throughput meter's realized per-side rates on a work-stealing
	// run (combinations/sec of busy time; 0 when a side was idle or
	// the run was static).
	MeasuredCPUCombosPerSec, MeasuredGPUCombosPerSec float64

	// Duration is the wall time of the heterogeneous run.
	Duration time.Duration
}

// Search runs the 3-way combination space across the CPU engine and
// the GPU simulator — work-stealing from a shared tile cursor by
// default, statically split on a fixed CPUFraction — and merges the
// results. The merge is bit-exact: both halves compute the same
// tables and scores, and the top-K ordering is the one every backend
// shares.
func Search(st *store.Store, opts Options) (*Result, error) {
	if opts.CPUDevice.ID == "" {
		c, err := device.CPUByID("CI3")
		if err != nil {
			return nil, err
		}
		opts.CPUDevice = c
	}
	if opts.GPUDevice.ID == "" {
		g, err := device.GPUByID("GN1")
		if err != nil {
			return nil, err
		}
		opts.GPUDevice = g
	}
	if opts.Objective == nil {
		opts.Objective = score.NewK2(st.Samples())
	}
	if opts.TopK == 0 {
		opts.TopK = 1
	}
	if opts.TopK < 0 {
		return nil, fmt.Errorf("hetero: invalid TopK %d", opts.TopK)
	}
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Mode < ModeAuto || opts.Mode > ModeAllGPU {
		return nil, fmt.Errorf("hetero: invalid mode %d", int(opts.Mode))
	}
	if opts.CPUFraction < 0 {
		return nil, fmt.Errorf("hetero: negative CPUFraction %g (request a one-sided run with ModeAllGPU)", opts.CPUFraction)
	}
	if opts.CPUFraction > 1 {
		return nil, fmt.Errorf("hetero: CPUFraction %g out of range", opts.CPUFraction)
	}
	if opts.Mode != ModeAuto && opts.CPUFraction != 0 {
		return nil, fmt.Errorf("hetero: CPUFraction %g conflicts with mode %v (the mode owns the placement)", opts.CPUFraction, opts.Mode)
	}
	m, n := st.SNPs(), st.Samples()

	lo, hi := int64(0), combin.Triples(m)
	if r := opts.Range; r != nil {
		if r.Lo < 0 || r.Hi < r.Lo || r.Hi > hi {
			return nil, fmt.Errorf("hetero: invalid rank range [%d,%d) of %d", r.Lo, r.Hi, hi)
		}
		lo, hi = r.Lo, r.Hi
	}
	total := hi - lo

	cpuRate := perfmodel.CPUOverallGElemPerSec(opts.CPUDevice, true, m, n)
	gpuRate := perfmodel.GPUOverallGElemPerSec(opts.GPUDevice, m, n)
	out := &Result{ModeledCombinedGElems: cpuRate + gpuRate}
	if total == 0 {
		out.Best = engine.Candidate{Score: opts.Objective.Worst()}
		return out, nil
	}

	if opts.Searcher == nil {
		s, err := engine.NewFromStore(st)
		if err != nil {
			return nil, err
		}
		opts.Searcher = s
	}

	start := time.Now()
	var cpuRes *engine.Result
	var gpuRes *gpusim.Result
	var err error
	switch {
	case opts.Mode == ModeAllCPU:
		cpuRes, gpuRes, err = runStatic(st, &opts, lo, hi, 1)
	case opts.Mode == ModeAllGPU:
		cpuRes, gpuRes, err = runStatic(st, &opts, lo, hi, 0)
	case opts.CPUFraction == 0:
		cpuRes, gpuRes, err = runStealing(st, &opts, lo, hi, out)
	default:
		cpuRes, gpuRes, err = runStatic(st, &opts, lo, hi, opts.CPUFraction)
	}
	if err != nil {
		return nil, err
	}
	out.Duration = time.Since(start)

	merged := &topList{obj: opts.Objective, k: opts.TopK}
	if cpuRes != nil {
		out.CPUStats = cpuRes.Stats
		for _, c := range cpuRes.TopK {
			merged.offer(c)
		}
	}
	if gpuRes != nil {
		out.GPUStats = gpuRes.Stats
		for _, c := range gpuRes.TopK {
			merged.offer(engine.Candidate{SNPs: [contingency.MaxOrder]int{c.I, c.J, c.K}, Score: c.Score})
		}
	}
	out.TopK = merged.items
	if len(merged.items) > 0 {
		out.Best = merged.items[0]
	} else {
		out.Best = engine.Candidate{Score: opts.Objective.Worst()}
	}
	out.CPUFraction = float64(out.CPUStats.Combinations) / float64(total)
	if covered := out.CPUStats.Combinations + out.GPUStats.Combinations; covered != total {
		return nil, fmt.Errorf("hetero: halves cover %d of %d ranks", covered, total)
	}
	return out, nil
}

// runStealing drains one shared tile cursor from both sides: the GPU
// consumer claims first (Search waits for its opening claim before
// unleashing the CPU pool), then each side pulls the next tile
// whenever it finishes one. The cursor's grain and the device's claim
// multiplier come from the plan seeds when given; a shared throughput
// meter measures both sides and refines the device's claim span
// mid-search, recording the realized rates into out.
func runStealing(st *store.Store, opts *Options, lo, hi int64, out *Result) (*engine.Result, *gpusim.Result, error) {
	workers := opts.Workers
	grain := sched.SeededGrain(hi-lo, workers+1, opts.Grain)
	src := sched.NewSource(lo, hi, grain)
	cur := sched.NewCursor(src)
	meter := sched.NewThroughputMeter(workers + 1)
	out.Grain = grain

	type gpuOut struct {
		res *gpusim.Result
		err error
	}
	gpuCh := make(chan gpuOut, 1)
	claimed := make(chan struct{})
	go func() {
		res, err := gpusim.New(opts.GPUDevice).Search(st, gpusim.Options{
			Kernel:        gpusim.K4Tiled,
			Objective:     opts.Objective,
			TopK:          opts.TopK,
			Context:       opts.Context,
			Tiles:         cur,
			Started:       func() { close(claimed) },
			ClaimGrains:   opts.GPUGrains,
			Meter:         meter,
			MeterConsumer: workers,
		})
		gpuCh <- gpuOut{res: res, err: err}
	}()

	// Wait for the device's opening claim (or its early failure) so a
	// fast CPU pool cannot drain the space before the device joins.
	var gpu *gpuOut
	select {
	case <-claimed:
	case g := <-gpuCh:
		gpu = &g
	}
	if gpu != nil && gpu.err != nil {
		return nil, nil, fmt.Errorf("hetero: GPU half: %w", gpu.err)
	}

	cpuRes, cpuErr := opts.Searcher.Run(engine.Options{
		Approach:  engine.V2Split, // rank-partitionable approach
		Workers:   opts.Workers,
		Objective: opts.Objective,
		TopK:      opts.TopK,
		Context:   opts.Context,
		Tiles:     cur,
		Meter:     meter,
		Metrics:   opts.Metrics,
	})
	if gpu == nil {
		g := <-gpuCh
		gpu = &g
	}
	if cpuErr != nil {
		return nil, nil, fmt.Errorf("hetero: CPU half: %w", cpuErr)
	}
	if gpu.err != nil {
		return nil, nil, fmt.Errorf("hetero: GPU half: %w", gpu.err)
	}
	for c := 0; c < workers; c++ {
		out.MeasuredCPUCombosPerSec += meter.Rate(c)
	}
	out.MeasuredGPUCombosPerSec = meter.Rate(workers)
	return cpuRes, gpu.res, nil
}

// runStatic splits [lo, hi) at the given fraction and runs the halves
// concurrently — the paper's throughput-proportional static split,
// kept for analytical comparisons and forced placements (the one-
// sided modes are its 0 and 1 endpoints). The CPU half drains a cursor
// of its own over [lo, cut).
func runStatic(st *store.Store, opts *Options, lo, hi int64, frac float64) (*engine.Result, *gpusim.Result, error) {
	cut := lo + int64(frac*float64(hi-lo))
	if cut > hi {
		cut = hi
	}

	type cpuOut struct {
		res *engine.Result
		err error
	}
	cpuCh := make(chan cpuOut, 1)
	go func() {
		if cut == lo {
			cpuCh <- cpuOut{res: &engine.Result{}}
			return
		}
		res, err := opts.Searcher.Run(engine.Options{
			Approach:  engine.V2Split,
			Workers:   opts.Workers,
			Objective: opts.Objective,
			TopK:      opts.TopK,
			Context:   opts.Context,
			Tiles:     sched.NewCursor(sched.NewSource(lo, cut, sched.AutoGrain(cut-lo, opts.Workers))),
			Metrics:   opts.Metrics,
		})
		cpuCh <- cpuOut{res: res, err: err}
	}()

	var gpuRes *gpusim.Result
	var gpuErr error
	if cut < hi {
		gpuRes, gpuErr = gpusim.New(opts.GPUDevice).Search(st, gpusim.Options{
			Kernel:    gpusim.K4Tiled,
			Objective: opts.Objective,
			TopK:      opts.TopK,
			Context:   opts.Context,
			RankLo:    cut,
			RankHi:    hi,
		})
	}
	cpu := <-cpuCh
	if cpu.err != nil {
		return nil, nil, fmt.Errorf("hetero: CPU half: %w", cpu.err)
	}
	if gpuErr != nil {
		return nil, nil, fmt.Errorf("hetero: GPU half: %w", gpuErr)
	}
	return cpu.res, gpuRes, nil
}

// topList accumulates the k best candidates under the shared
// objective-then-lexicographic ordering.
type topList struct {
	obj   score.Objective
	k     int
	items []engine.Candidate
}

func (t *topList) better(a, b engine.Candidate) bool {
	if a.Score != b.Score {
		return t.obj.Better(a.Score, b.Score)
	}
	return a.Less(b)
}

func (t *topList) offer(c engine.Candidate) {
	t.items = topk.Insert(t.items, c, t.k, t.better)
}
