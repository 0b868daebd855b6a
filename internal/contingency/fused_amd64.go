//go:build amd64 && !purego

package contingency

import "trigene/internal/bitvec"

// hasAVX512 selects the assembly bodies: the module's one probe
// (bitvec.HasAVX512), read once, when the package initialises.
var hasAVX512 = bitvec.HasAVX512()

// The assembly bodies take raw pointers and walk n >= 1 words from
// each; their Go callers have checked every slice holds that many.

//go:noescape
func buildPairPlanesAVX512(dst, y0, y1, z0, z1 *uint64, n int)

//go:noescape
func sumPairPlanesAVX512(sums *[PairPlanes]int32, planes *uint64, n int)

//go:noescape
func accumulateFusedAVX512(ft *[Cells]int32, x0, x1, planes *uint64, sums *[PairPlanes]int32, n int)

//go:noescape
func pairLanesAVX512(lt *LaneTable, x, y *uint64, xmarg, ymarg *[2]int32, n, words, valid int)

//go:noescape
func tripleLanesAVX512(lt *LaneTable, xt, y0, y1, z0, z1 *uint64, n int, add bool)

//go:noescape
func xLanesAVX512(xc *XCounts, xt, s0, s1 *uint64, n int, add bool)

//go:noescape
func deriveAVX512(lt *LaneTable, xy, xz *XCounts, xmarg *[2]int32, nx int, yz *int32)
