//go:build !amd64 || purego

package score

import "trigene/internal/contingency"

// k2LanesAVX512 is never reached in builds without the assembly:
// contingency.HasAVX512 is constant false there.
func k2LanesAVX512(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid *uint8, groups int, lnFact, terms *float64, limit, rows int, bound float64) (next, stop int, ok bool) {
	panic("score: no assembly in this build")
}
