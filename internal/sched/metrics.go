package sched

import (
	"strconv"

	"trigene/internal/obs"
)

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

// Instrument registers a per-consumer realized-rate collector on reg:
// each scrape samples Rate for every consumer slot, labeled
// consumer="0".., under the given metric name (which must be a valid
// metric name; pass something namespaced like
// "trigene_engine_consumer_items_per_second"). Re-registering the
// name rebinds the collector to this meter — each search run's meter
// takes over the series. A nil registry is a no-op.
func (m *ThroughputMeter) Instrument(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	reg.GaugeFunc(name, "Realized per-consumer throughput in items/second.", func() []obs.Sample {
		samples := make([]obs.Sample, 0, len(m.cells))
		for i := range m.cells {
			samples = append(samples, obs.Sample{
				Value:  m.Rate(i),
				Labels: []obs.Label{obs.L("consumer", strconv.Itoa(i))},
			})
		}
		return samples
	})
}
