//go:build !amd64 || purego

package contingency

// hasAVX512 is false in builds without the assembly (other
// architectures, or -tags purego): every call takes the Go bodies and
// the stubs below are never reached.
const hasAVX512 = false

func buildPairPlanesAVX512(dst, y0, y1, z0, z1 *uint64, n int) {
	panic("contingency: no assembly in this build")
}

func sumPairPlanesAVX512(sums *[PairPlanes]int32, planes *uint64, n int) {
	panic("contingency: no assembly in this build")
}

func accumulateFusedAVX512(ft *[Cells]int32, x0, x1, planes *uint64, sums *[PairPlanes]int32, n int) {
	panic("contingency: no assembly in this build")
}

func pairLanesAVX512(lt *LaneTable, x, y *uint64, xmarg, ymarg *[2]int32, n, words, valid int) {
	panic("contingency: no assembly in this build")
}

func blockLanesAVX512(bank []LaneTable, xc []XCounts, xt, planes []uint64, pairs []lanePair, snps []int32, n, words int, add, derive bool, xmarg [][2]int32, yz []LaneTable) {
	panic("contingency: no assembly in this build")
}
