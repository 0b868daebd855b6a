//go:build amd64 && !purego

package permtest

// The AVX-512 bodies of the by-sample count (block_amd64.s). They take
// raw pointers; their Go callers (transpose, cellCounts) have sliced
// every operand to what the bodies read. Callers gate them on
// contingency.HasAVX512.

// transposeAVX512 is transpose's vector body: words 64 x 64 tiles of the
// slab, planes pstride bytes apart, into rows stride bytes apart, eight
// tiles at a time from the planes' cache lines. It reads the last plane
// up to words rounded up to 8.
//
//go:noescape
func transposeAVX512(rows *uint64, stride int, slab *uint64, pstride, words int)

// countAVX512 adds groups rounds of sixteen vectors, each the w-word
// chunks of 8/w samples' rows (r words each), into a fresh bit-sliced
// counter of levels levels and stores its ctrLevels levels at ctr: lanes
// [q·w, q·w+w) of a level count the samples q, q+8/w, … of the list.
//
//go:noescape
func countAVX512(ctr, rows *uint64, samples *int32, r, groups, w, levels int)

// extractAVX512 folds the 8/w counters of countAVX512's levels at ctr
// into one and writes each of its 64·w counts c to cases and total − c to
// ctrl, lane-table laid out with groups gs bytes apart.
//
//go:noescape
func extractAVX512(cases, ctrl *int32, gs int, ctr *uint64, levels, w, total int)
