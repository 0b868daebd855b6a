package sched

import (
	"sync/atomic"
	"time"
)

// ThroughputMeter measures the realized per-consumer throughput of a
// running search: every consumer records the items it finished and the
// time they took, and anyone — the consumer itself, a coordinator, a
// report — can read back items/sec rates while the run is live.
//
// A work-stealing device consumer sizes its claims from it mid-search
// (SuggestGrains): a device that measures faster than its peers grows
// its claim span instead of idling between undersized tiles. All methods are safe for concurrent use; Record
// is two atomic adds, cheap enough for per-tile accounting.
type ThroughputMeter struct {
	cells []meterCell
}

// meterCell is one consumer's running totals.
type meterCell struct {
	items atomic.Int64
	ns    atomic.Int64
}

// NewThroughputMeter returns a meter over the given number of
// consumers (clamped to at least 1).
func NewThroughputMeter(consumers int) *ThroughputMeter {
	if consumers < 1 {
		consumers = 1
	}
	return &ThroughputMeter{cells: make([]meterCell, consumers)}
}

// Record adds items finished in d by the given consumer. Out-of-range
// consumers are ignored (a defensive no-op, not an error, so meters
// can be shared across layers with different consumer counts).
func (m *ThroughputMeter) Record(consumer int, items int64, d time.Duration) {
	if consumer < 0 || consumer >= len(m.cells) {
		return
	}
	c := &m.cells[consumer]
	c.items.Add(items)
	c.ns.Add(int64(d))
}

// Items returns the total items the consumer has recorded.
func (m *ThroughputMeter) Items(consumer int) int64 {
	if consumer < 0 || consumer >= len(m.cells) {
		return 0
	}
	return m.cells[consumer].items.Load()
}

// Rate returns the consumer's measured items/sec, or 0 before it has
// recorded any busy time.
func (m *ThroughputMeter) Rate(consumer int) float64 {
	if consumer < 0 || consumer >= len(m.cells) {
		return 0
	}
	c := &m.cells[consumer]
	ns := c.ns.Load()
	if ns <= 0 {
		return 0
	}
	return float64(c.items.Load()) / (float64(ns) / float64(time.Second))
}

// meterWarmupItems is how many items a consumer (and its peers) must
// have recorded before SuggestGrains trusts the measured ratio.
const meterWarmupItems = 1024

// SuggestGrains returns a claim-grain multiplier for the consumer:
// its measured rate over the mean rate of every *other* consumer with
// data, rounded and clamped to [1, max]. It returns 0 — "no
// suggestion, keep your seed" — until both sides have recorded enough
// items for the ratio to mean something.
func (m *ThroughputMeter) SuggestGrains(consumer int, max int64) int64 {
	if max < 1 {
		max = 1
	}
	mine := m.Rate(consumer)
	if mine <= 0 || m.Items(consumer) < meterWarmupItems {
		return 0
	}
	var others float64
	var n, items int64
	for i := range m.cells {
		if i == consumer {
			continue
		}
		if r := m.Rate(i); r > 0 {
			others += r
			n++
			items += m.Items(i)
		}
	}
	if n == 0 || items < meterWarmupItems {
		return 0
	}
	g := int64(mine/(others/float64(n)) + 0.5)
	if g < 1 {
		g = 1
	}
	if g > max {
		g = max
	}
	return g
}
