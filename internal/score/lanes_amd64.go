//go:build amd64 && !purego

package score

import "trigene/internal/contingency"

// k2LanesAVX512 scores the lanes whose bit is set in mask (a subset of
// the low eight) and reports whether every count it met was a valid
// LnFact index, 0..limit; if not, dst is unspecified. Callers gate it on
// contingency.HasAVX512.
//
//go:noescape
func k2LanesAVX512(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, lnFact *float64, limit, mask int) bool
