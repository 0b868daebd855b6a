package engine

import (
	"trigene/internal/contingency"
	"trigene/internal/obs"
)

// runMetrics is one run's resolved series, looked up before the
// worker pool starts so the drain callback does one nil check and a
// few atomic adds per tile — never a registry lookup, never an
// allocation. The zero value is a no-op.
type runMetrics struct {
	tiles    *obs.Counter
	combos   *obs.Counter
	rejected *obs.Counter
}

// resolveRunMetrics registers (or finds) the engine's series under one
// run's approach label — V2, V3F or V4F for the order-3 pipelines, "pair",
// "kway" or "seeded" for the other runs — and the info series naming the
// kernel the tuned fused pipeline runs on this host. A nil registry
// yields no-op metrics.
func resolveRunMetrics(reg *obs.Registry, approach string) runMetrics {
	reg.Gauge("trigene_engine_kernel_info", "Fused-kernel implementation selected for this host at start-up (constant 1).",
		obs.L("kernel", contingency.Kernel())).Set(1)
	l := obs.L("approach", approach)
	return runMetrics{
		tiles:  reg.Counter("trigene_engine_tiles_total", "Tiles scored by the search engine, by approach.", l),
		combos: reg.Counter("trigene_engine_combinations_total", "SNP combinations scored, by approach.", l),
		rejected: reg.Counter("trigene_engine_lane_groups_rejected_total",
			"Groups of up to eight lane tables whose scoring stopped early because none could enter the worker's top-K (nor, on a pair screen, improve a SNP's best), by approach: V4F, pair and seeded.", l),
	}
}

// observe records one drained tile of combos combinations, and hands on
// the lane groups the consumer's arena rejected meanwhile.
func (rm *runMetrics) observe(combos int64, a *arena) {
	rm.tiles.Inc()
	rm.combos.Add(combos)
	rm.rejected.Add(a.rejected)
	a.rejected = 0
}
