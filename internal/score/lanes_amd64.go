//go:build amd64 && !purego

package score

import "trigene/internal/contingency"

// k2LanesAVX512 scores a run of groups lane groups, ctrl[g] and cases[g]
// for g < groups with valid[g] valid lanes, against bound in one pass over
// each group's first rows (1..27), with ScoreGroups' contract: next is the
// first group it does not reject, its scores in dst, or groups; stop is
// the row after which the last rejected group was given up on (0: none
// was). ok = false means a row it read holds a valid lane's count whose
// indices do not all lie in the LnFact table, 0..limit; it has then read
// no table entry for that row and dst, next and stop are unspecified.
// terms is the term table, termSide x termSide, which it reads instead of
// lnFact for a row whose valid counts all lie below termSide, when limit
// reaches 2*termSide - 1. Callers gate it on contingency.HasAVX512.
//
//go:noescape
func k2LanesAVX512(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid *uint8, groups int, lnFact, terms *float64, limit, rows int, bound float64) (next, stop int, ok bool)
