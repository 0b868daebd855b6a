//go:build amd64 && !purego

package score

import "trigene/internal/contingency"

// k2LanesAVX512 scores the first rows (1..27) of the lanes whose bit is
// set in mask (a subset of the low eight) against bound, with
// ScoreLanesStop's contract. ok = false means it could not vouch, from all
// those rows, that every index of those lanes lies in the LnFact table,
// 0..limit — always so when a count is outside it, never for a table over
// fewer than limit samples; it has then read no table entry and dst is
// unspecified. terms is the term table, termSide x termSide, which it
// reads instead of lnFact for a group whose counts are all below termSide.
// Callers gate it on contingency.HasAVX512.
//
//go:noescape
func k2LanesAVX512(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, lnFact, terms *float64, limit, mask, rows int, bound float64) (stop int, ok bool)
