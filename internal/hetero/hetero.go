// Package hetero implements the heterogeneous CPU+GPU execution mode
// the paper discusses in Section V-D (and that reference [30] builds):
// the CPU engine's workers and the simulated GPU consume the 3-way
// combination space concurrently and the results are merged.
//
// The two sides share one claiming cursor of the tile scheduler — true
// work-stealing: each side pulls the next tile when it finishes its
// last one, so the split follows the realized rates instead of a
// modeled ratio. The device pair is the paper's CI3 + GN1; its
// analytical Section V-D estimate of the pair's joint throughput is
// reported as Result.ModeledCombinedGElems.
//
// The CPU half runs the paper-ladder V2 kernel (engine.V2Split), the
// one CPU pipeline that claims combination ranks on a shared cursor: the
// engine's k-way rank body at k = 3, contingency.BuildSplitK's table per
// combination.
// The package is kept to demonstrate Section V-D; it is not a product
// path, and its CPU half runs far behind the cpu backend's V4F.
package hetero

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"trigene/internal/combin"
	"trigene/internal/device"
	"trigene/internal/engine"
	"trigene/internal/gpusim"
	"trigene/internal/join"
	"trigene/internal/obs"
	"trigene/internal/perfmodel"
	"trigene/internal/sched"
	"trigene/internal/score"
	"trigene/internal/store"
)

// Options configures a heterogeneous search.
//
// The shared cursor's grain comes from sched.AutoGrain over the
// searched range and the consumer count (the CPU workers and the
// device); the device claims 4 grains at a time until the run's
// throughput meter has measured both sides.
type Options struct {
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
	// the CPU engine: the realized work-stealing split.
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

	// Duration is the wall time of the heterogeneous run.
	Duration time.Duration
}

// Search runs the 3-way combination space across the CPU engine and
// the GPU simulator, work-stealing from a shared tile cursor, and
// merges the results. The merge is bit-exact: both halves compute the
// same tables and scores, and the top-K ordering is the one every
// backend shares.
func Search(st *store.Store, opts Options) (*Result, error) {
	cpuDev, err := device.CPUByID("CI3")
	if err != nil {
		return nil, err
	}
	gpuDev, err := device.GPUByID("GN1")
	if err != nil {
		return nil, err
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
	m, n := st.SNPs(), st.Samples()

	lo, hi := int64(0), combin.Triples(m)
	if r := opts.Range; r != nil {
		if r.Lo < 0 || r.Hi < r.Lo || r.Hi > hi {
			return nil, fmt.Errorf("hetero: invalid rank range [%d,%d) of %d", r.Lo, r.Hi, hi)
		}
		lo, hi = r.Lo, r.Hi
	}
	total := hi - lo

	cpuRate := perfmodel.CPUOverallGElemPerSec(cpuDev, true, m, n)
	gpuRate := perfmodel.GPUOverallGElemPerSec(gpuDev, m, n)
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
	cpuRes, gpuRes, err := runStealing(st, gpuDev, &opts, lo, hi)
	if err != nil {
		return nil, err
	}
	out.Duration = time.Since(start)

	out.CPUStats, out.GPUStats = cpuRes.Stats, gpuRes.Stats
	merged := engine.NewTopK(opts.Objective, opts.TopK)
	for _, top := range [][]engine.Candidate{cpuRes.TopK, gpuRes.TopK} {
		for _, c := range top {
			merged.Offer(c)
		}
	}
	out.TopK = merged.List()
	if len(out.TopK) > 0 {
		out.Best = out.TopK[0]
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
// whenever it finishes one. A shared throughput meter measures both
// sides and refines the device's claim span mid-search.
func runStealing(st *store.Store, gpuDev device.GPU, opts *Options, lo, hi int64) (*engine.Result, *gpusim.Result, error) {
	workers := opts.Workers
	cur := sched.NewCursor(sched.NewSource(lo, hi, sched.AutoGrain(hi-lo, workers+1)))
	meter := sched.NewThroughputMeter(workers + 1)

	type gpuOut struct {
		res   *gpusim.Result
		err   error
		panic *join.Panic // raised again here, where the caller can recover it
	}
	gpuCh := make(chan gpuOut, 1)
	claimed := make(chan struct{})
	go func() {
		var out gpuOut
		out.panic = join.Catch(func() {
			out.res, out.err = gpusim.New(gpuDev).Search(st, gpusim.Options{
				Kernel:        gpusim.K4Tiled,
				Objective:     opts.Objective,
				TopK:          opts.TopK,
				Context:       opts.Context,
				Tiles:         cur,
				Started:       func() { close(claimed) },
				Meter:         meter,
				MeterConsumer: workers,
			})
		})
		gpuCh <- out
	}()

	// Wait for the device's opening claim (or its early failure) so a
	// fast CPU pool cannot drain the space before the device joins.
	var gpu *gpuOut
	select {
	case <-claimed:
	case g := <-gpuCh:
		gpu = &g
	}
	if gpu != nil && gpu.panic != nil {
		panic(gpu.panic)
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
	if gpu.panic != nil {
		panic(gpu.panic)
	}
	if cpuErr != nil {
		return nil, nil, fmt.Errorf("hetero: CPU half: %w", cpuErr)
	}
	if gpu.err != nil {
		return nil, nil, fmt.Errorf("hetero: GPU half: %w", gpu.err)
	}
	return cpuRes, gpu.res, nil
}
