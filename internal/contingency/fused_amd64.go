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

// blockLanesAVX512 is Block's body over n >= 1 words from planes, which
// starts at word w0 of the class's first plane.
//
//go:noescape
func blockLanesAVX512(bank []LaneTable, xc []XCounts, xt, planes []uint64, pairs []lanePair, snps []int32, n, words int, add, derive bool, xmarg [][2]int32, yz []LaneTable)
