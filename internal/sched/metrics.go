package sched

import "trigene/internal/obs"

// cursorMetrics is a Cursor's resolved series; the zero value (nil
// metrics) is a no-op, so the uninstrumented claim path pays only nil
// checks and the instrumented one two atomic adds per tile — both
// allocation-free.
type cursorMetrics struct {
	tiles *obs.Counter
	ranks *obs.Counter
	items *obs.Counter
}

// Instrument registers the cursor's series on reg, labeled by the
// space kind (the engine's "flat", "blocked", "pair", "kway" or
// "seeded"), and starts recording: tiles and
// ranks claimed, work items finished, and the claim grain in use.
// Call before consumers start. A nil registry is a no-op.
func (c *Cursor) Instrument(reg *obs.Registry, space string) {
	if reg == nil {
		return
	}
	l := obs.L("space", space)
	c.m = cursorMetrics{
		tiles: reg.Counter("trigene_sched_tiles_claimed_total", "Tiles claimed from the scheduling cursor.", l),
		ranks: reg.Counter("trigene_sched_ranks_claimed_total", "Ranks covered by claimed tiles.", l),
		items: reg.Counter("trigene_sched_items_finished_total", "Work items reported finished.", l),
	}
	reg.Gauge("trigene_sched_grain", "Ranks per claim of the most recent instrumented cursor.", l).
		Set(float64(c.src.grain))
}
