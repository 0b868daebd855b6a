package trigene

import (
	"context"
	"fmt"
	"time"

	"trigene/internal/combin"
	"trigene/internal/engine"
	"trigene/internal/gpusim"
	"trigene/internal/hetero"
	"trigene/internal/mpi3snp"
	"trigene/internal/sched"
)

// Backend is a pluggable execution engine behind Session.Search. The
// four implementations — CPU, GPUSim, Baseline and Hetero — accept the
// same request contract and produce the same Report shape; backends
// that cannot honor a requested feature (sharding, top-K depth,
// approach selection) fail loudly instead of silently degrading.
//
// Backends are provided by this package; the interface is sealed.
type Backend interface {
	// Name identifies the backend in Reports ("cpu", "gpusim:GN1",
	// "baseline", "hetero").
	Name() string
	// search runs one configured search over a session's dataset.
	search(ctx context.Context, s *Session, cfg *searchConfig) (*Report, error)
}

// shardRange maps shard index of count onto the combination-rank space
// [0, total) through the scheduler's shard math: contiguous slices
// whose sizes differ by at most one.
func shardRange(total int64, sp *shardSpec) combin.Range {
	sub, err := sched.NewSource(0, total, 1).Shard(sched.Shard{Index: sp.index, Count: sp.count})
	if err != nil {
		// Unreachable: WithShard validated the coordinates.
		panic(err)
	}
	return sub.Bounds()
}

// shardInfo materializes the Report record for a shard from the
// covered slice of the work space (nil space leaves Lo/Hi zero).
func shardInfo(sp *shardSpec, space *sched.Tile, units string) *ShardInfo {
	if sp == nil {
		return nil
	}
	si := &ShardInfo{Index: sp.index, Count: sp.count, Space: units}
	if space != nil {
		si.Lo, si.Hi = space.Lo, space.Hi
	}
	return si
}

// ---------------------------------------------------------------------
// CPU backend

type cpuBackend struct{}

// CPU returns the host CPU backend: at order 3 the lanes pass — V4F, or
// V3F on the portable Go bodies — across a dynamically scheduled worker
// pool fed by the tile scheduler. It supports every interaction order,
// top-K ranking, and sharding on every order (order 3 slices block
// triples of 8 SNPs, order 2 block pairs of 8, orders 4..7 the
// combination-rank space). It refuses approaches V1..V4, which are gpusim
// kernels.
func CPU() Backend { return cpuBackend{} }

// Name implements Backend.
func (cpuBackend) Name() string { return "cpu" }

func (cpuBackend) search(ctx context.Context, s *Session, cfg *searchConfig) (*Report, error) {
	obj, objName, err := cfg.objective(s.Samples())
	if err != nil {
		return nil, err
	}
	eopts := engine.Options{
		Workers:   cfg.workers,
		Objective: obj,
		TopK:      cfg.topK,
		Context:   ctx,
		Progress:  cfg.progress,
		Metrics:   cfg.metrics,
	}
	if cfg.shard != nil {
		eopts.Shard = &sched.Shard{Index: cfg.shard.index, Count: cfg.shard.count}
	}
	rep := &Report{
		Backend:   "cpu",
		Objective: objName,
		Order:     cfg.order,
		obj:       obj,
		topK:      cfg.topK,
	}

	if cfg.order != 3 && cfg.approachSet {
		return nil, fmt.Errorf("trigene: order-%d searches use the fixed split kernel; WithApproach applies to order 3 only", cfg.order)
	}
	ap := cfg.cpuApproach()
	rep.Approach = ap.String()
	var res *engine.Result
	switch cfg.order {
	case 2:
		res, err = s.searcher.RunPairs(eopts)
	case 3:
		eopts.Approach = ap
		res, err = s.searcher.Run(eopts)
	default:
		res, err = s.searcher.RunK(cfg.order, eopts)
	}
	if err != nil {
		return nil, err
	}
	rep.TopK = searchCandidates(res.TopK, res.Order)
	if len(rep.TopK) > 0 {
		rep.Best = rep.TopK[0]
	}
	space := ShardSpaceRanks
	if res.BlockSNPs > 0 {
		space = blockSpaceName(res.Order, res.BlockSNPs)
	}
	rep.Shard = shardInfo(cfg.shard, res.Space, space)
	fillStats(rep, res.Stats)
	return rep, nil
}

// searchCandidates converts an engine ranking of order-k candidates into
// the Report's (nil when it is empty).
func searchCandidates(top []engine.Candidate, order int) []SearchCandidate {
	var out []SearchCandidate
	for _, c := range top {
		out = append(out, SearchCandidate{SNPs: append([]int(nil), c.SNPs[:order]...), Score: c.Score})
	}
	return out
}

// fillStats copies the engine's throughput accounting into a Report.
func fillStats(rep *Report, st engine.Stats) {
	rep.Combinations = st.Combinations
	rep.Elements = st.Elements
	rep.Duration = st.Duration
	rep.ElementsPerSec = st.ElementsPerSec
}

// ---------------------------------------------------------------------
// Simulated-GPU backend

type gpuBackend struct {
	dev GPUDevice
}

// GPUSim returns a backend that executes searches bit-exactly on a
// simulated Table II device with the paper's four GPU kernels and a
// coalescing-aware memory model. It supports order 3 only, with
// top-K ranking and sharding via scheduler rank tiles.
func GPUSim(dev GPUDevice) Backend { return gpuBackend{dev: dev} }

// Name implements Backend.
func (b gpuBackend) Name() string { return "gpusim:" + b.dev.ID }

func (b gpuBackend) search(ctx context.Context, s *Session, cfg *searchConfig) (*Report, error) {
	if cfg.order != 3 {
		return nil, fmt.Errorf("trigene: %s backend supports order 3 only (order %d requested)", b.Name(), cfg.order)
	}
	obj, objName, err := cfg.objective(s.Samples())
	if err != nil {
		return nil, err
	}
	kernel := gpusim.K4Tiled
	if cfg.approachSet {
		if cfg.approach == V4Fused {
			// The CPU numbering has two fused variants; the GPU has one
			// fused kernel, so both map onto it.
			kernel = gpusim.K5Fused
		} else {
			kernel = gpusim.Kernel(cfg.approach)
		}
	}
	gopts := gpusim.Options{
		Kernel:    kernel,
		Objective: obj,
		TopK:      cfg.topK,
		Context:   ctx,
	}
	rep := &Report{
		Backend:   b.Name(),
		Approach:  kernel.String(),
		Objective: objName,
		Order:     3,
		obj:       obj,
		topK:      cfg.topK,
	}
	if cfg.shard != nil {
		rg := shardRange(combin.Triples(s.SNPs()), cfg.shard)
		rep.Shard = shardInfo(cfg.shard, &rg, ShardSpaceRanks)
		if rg.Len() == 0 {
			// An empty shard has no candidates and runs no device.
			return rep, nil
		}
		gopts.Range = &rg
	}
	start := time.Now()
	res, err := gpusim.New(b.dev).Search(s.store, gopts)
	if err != nil {
		return nil, err
	}
	rep.TopK = searchCandidates(res.TopK, 3)
	if len(rep.TopK) > 0 {
		rep.Best = rep.TopK[0]
	}
	rep.Combinations = res.Stats.Combinations
	rep.Elements = res.Stats.Elements
	rep.Duration = time.Since(start)
	rep.ElementsPerSec = res.Stats.ElementsPerSec // modeled device throughput
	stats := res.Stats
	rep.GPU = &stats
	return rep, nil
}

// ---------------------------------------------------------------------
// Baseline backend

type baselineBackend struct{}

// Baseline returns the MPI3SNP-style reference backend (three stored
// planes, no tiling, static scheduling, mutual information) — the
// Table III comparator. It supports order 3, top-K ranking and
// sharding (the static distribution then covers the shard's rank
// slice); it ranks by mutual information only.
func Baseline() Backend { return baselineBackend{} }

// Name implements Backend.
func (baselineBackend) Name() string { return "baseline" }

func (baselineBackend) search(ctx context.Context, s *Session, cfg *searchConfig) (*Report, error) {
	if cfg.order != 3 {
		return nil, fmt.Errorf("trigene: baseline backend supports order 3 only (order %d requested)", cfg.order)
	}
	if cfg.approachSet {
		return nil, fmt.Errorf("trigene: baseline backend has a fixed pipeline; WithApproach does not apply")
	}
	if cfg.objName != "" && cfg.objName != "mi" {
		return nil, fmt.Errorf("trigene: baseline backend ranks by mutual information only (objective %q requested)", cfg.objName)
	}
	obj, _, err := (&searchConfig{objName: "mi"}).objective(s.Samples())
	if err != nil {
		return nil, err
	}
	bopts := mpi3snp.Options{
		Ranks:   cfg.workers,
		TopK:    cfg.topK,
		Context: ctx,
	}
	rep := &Report{
		Backend:   "baseline",
		Approach:  "mpi3snp",
		Objective: "mi",
		Order:     3,
		obj:       obj,
		topK:      cfg.topK,
	}
	if cfg.shard != nil {
		rg := shardRange(combin.Triples(s.SNPs()), cfg.shard)
		bopts.Range = &rg
		rep.Shard = shardInfo(cfg.shard, &rg, ShardSpaceRanks)
	}
	res, err := mpi3snp.Search(s.store, bopts)
	if err != nil {
		return nil, err
	}
	rep.TopK = searchCandidates(res.TopK, 3)
	if len(rep.TopK) > 0 {
		rep.Best = rep.TopK[0]
	}
	rep.Combinations = res.Stats.Combinations
	rep.Elements = res.Stats.Elements
	rep.Duration = res.Stats.Duration
	rep.ElementsPerSec = res.Stats.ElementsPerSec
	return rep, nil
}

// ---------------------------------------------------------------------
// Heterogeneous backend

type heteroBackend struct{}

// Hetero returns the collaborative CPU+GPU backend of the paper's
// Section V-D on its device pairing (CI3 + GN1): the CPU
// engine's workers and the simulated GPU steal tiles from one shared
// scheduler cursor, so a mis-modeled device ratio degrades into a
// different realized split instead of idling one side. It supports
// order 3, top-K ranking and sharding (each shard is itself
// work-stolen across both halves).
func Hetero() Backend { return heteroBackend{} }

// Name implements Backend.
func (heteroBackend) Name() string { return "hetero" }

func (heteroBackend) search(ctx context.Context, s *Session, cfg *searchConfig) (*Report, error) {
	if cfg.order != 3 {
		return nil, fmt.Errorf("trigene: hetero backend supports order 3 only (order %d requested)", cfg.order)
	}
	if cfg.approachSet {
		return nil, fmt.Errorf("trigene: hetero backend runs V2 (CPU half) + V4 (GPU half); WithApproach does not apply")
	}
	obj, objName, err := cfg.objective(s.Samples())
	if err != nil {
		return nil, err
	}
	hopts := hetero.Options{
		Searcher:  s.searcher,
		Workers:   cfg.workers,
		TopK:      cfg.topK,
		Objective: obj,
		Context:   ctx,
		Metrics:   cfg.metrics,
	}
	rep := &Report{
		Backend:   "hetero",
		Approach:  "V2+V4",
		Objective: objName,
		Order:     3,
		obj:       obj,
		topK:      cfg.topK,
	}
	if cfg.shard != nil {
		rg := shardRange(combin.Triples(s.SNPs()), cfg.shard)
		hopts.Range = &rg
		rep.Shard = shardInfo(cfg.shard, &rg, ShardSpaceRanks)
		if rg.Len() == 0 {
			return rep, nil
		}
	}
	res, err := hetero.Search(s.store, hopts)
	if err != nil {
		return nil, err
	}
	rep.TopK = searchCandidates(res.TopK, 3)
	if len(rep.TopK) > 0 {
		rep.Best = rep.TopK[0]
	}
	rep.Combinations = res.CPUStats.Combinations + res.GPUStats.Combinations
	rep.Elements = float64(rep.Combinations) * float64(s.Samples())
	rep.Duration = res.Duration
	if secs := res.Duration.Seconds(); secs > 0 {
		rep.ElementsPerSec = rep.Elements / secs
	}
	gpuStats := res.GPUStats
	rep.GPU = &gpuStats
	rep.Hetero = &HeteroInfo{
		CPUFraction:           res.CPUFraction,
		ModeledCombinedGElems: res.ModeledCombinedGElems,
	}
	return rep, nil
}
