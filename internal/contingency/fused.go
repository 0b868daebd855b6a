package contingency

import "math/bits"

// PairPlanes is the number of (gy, gz) pair-AND planes the fused
// kernel consumes: the 3x3 genotype products of the y and z bit planes.
// The search no longer runs that kernel; BuildPairPlanes,
// AccumulateFusedLanes8 and AccumulateFusedX2 remain for the repository
// benchmark's kernel layer.
const PairPlanes = 9

// TripleCounted is how many of a triple's 27 cells the lanes pass counts
// per (y, z): the products of stored planes x_a ∧ y_b ∧ z_c, a, b, c in
// {0, 1} (LaneKernel.TripleLanes); the other 19 are derived. The pair
// kernel's counterpart is PairCounted.
const TripleCounted = 8

// Kernel names the implementation behind the lanes pass (LaneKernel,
// which the block pass and the seeded extension run) and the pair kernel
// on this host: "avx512-vpopcntdq" when the CPU and OS support it and the
// build holds the assembly, "portable" (the pure-Go bodies) otherwise.
func Kernel() string {
	if hasAVX512 {
		return "avx512-vpopcntdq"
	}
	return "portable"
}

// HasAVX512 reports what the module's one start-up probe found
// (bitvec.HasAVX512): AVX512F and AVX512_VPOPCNTDQ with OS-saved opmask
// and ZMM state, in a build that holds the assembly. score's K2 lanes and
// permtest's case-plane fill, transpose and sample counter are gated on
// it, and every body uses only those two subsets
// (TestAssemblyStaysInsideTheProbe).
func HasAVX512() bool { return hasAVX512 }

// BuildPairPlanes fills dst, PairPlanes*len(y0s) words, with the nine
// pair-AND planes of the given y/z word ranges (equal lengths): plane
// gy*3+gz holds ys[gy] & zs[gz], genotype 2 derived by NOR, plane-major.
// 2 NOR + 9 AND per word. Like every body here, the vector one takes
// every non-empty range, ragged or shorter than a vector.
func BuildPairPlanes(dst []uint64, y0s, y1s, z0s, z1s []uint64) {
	n := len(y0s)
	dst, y1s, z0s, z1s = dst[:PairPlanes*n], y1s[:n], z0s[:n], z1s[:n]
	if hasAVX512 && n > 0 {
		buildPairPlanesAVX512(&dst[0], &y0s[0], &y1s[0], &z0s[0], &z1s[0], n)
		return
	}
	buildPairPlanesGo(dst, y0s, y1s, z0s, z1s)
}

// AccumulateFusedLanes8 adds the genotype-combination counts of one x
// plane pair against pair planes BuildPairPlanes laid out over the same
// word range. With the planes' sums, an x costs 18 AND+POPCNT per word
// instead of 27: the nine cells of x genotype 2 follow by subtraction,
// because every sample of a pair plane carries exactly one x genotype.
// That needs x0 & x1 == 0 in every word, which the dataset loaders
// guarantee. Padding handling matches AccumulateSplit: the pad bits land
// in plane 8's sum and from there in accumulator 26, and the caller
// subtracts them.
func AccumulateFusedLanes8(ft *[Cells]int32, x0s, x1s, pair []uint64) {
	sums := sumPairPlanes(pair, len(x0s))
	accumulateFused(ft, x0s, x1s, pair, &sums)
}

// AccumulateFusedX2 adds the counts of two x plane pairs against the
// same pair planes, summing them once.
func AccumulateFusedX2(fta, ftb *[Cells]int32, xa0s, xa1s, xb0s, xb1s, pair []uint64) {
	sums := sumPairPlanes(pair, len(xa0s))
	accumulateFused(fta, xa0s, xa1s, pair, &sums)
	accumulateFused(ftb, xb0s[:len(xa0s)], xb1s, pair, &sums)
}

// sumPairPlanes counts the set bits of each of the nine planes of n
// words.
func sumPairPlanes(pair []uint64, n int) (sums [PairPlanes]int32) {
	pair = pair[:PairPlanes*n]
	if hasAVX512 && n > 0 {
		sumPairPlanesAVX512(&sums, &pair[0], n)
		return sums
	}
	return sumPairPlanesGo(pair, n)
}

func accumulateFused(ft *[Cells]int32, x0s, x1s, planes []uint64, sums *[PairPlanes]int32) {
	n := len(x0s)
	x1s, planes = x1s[:n], planes[:PairPlanes*n]
	if hasAVX512 && n > 0 {
		accumulateFusedAVX512(ft, &x0s[0], &x1s[0], &planes[0], sums, n)
		return
	}
	accumulateFusedGo(ft, x0s, x1s, planes, sums)
}

// buildPairPlanesGo is the pure-Go body of BuildPairPlanes and its oracle.
func buildPairPlanesGo(dst []uint64, y0s, y1s, z0s, z1s []uint64) {
	n := len(y0s)
	for w := 0; w < n; w++ {
		y0, y1 := y0s[w], y1s[w]
		z0, z1 := z0s[w], z1s[w]
		y2, z2 := ^(y0 | y1), ^(z0 | z1)
		dst[w], dst[n+w], dst[2*n+w] = y0&z0, y0&z1, y0&z2
		dst[3*n+w], dst[4*n+w], dst[5*n+w] = y1&z0, y1&z1, y1&z2
		dst[6*n+w], dst[7*n+w], dst[8*n+w] = y2&z0, y2&z1, y2&z2
	}
}

// sumPairPlanesGo is the pure-Go body of sumPairPlanes and its oracle.
func sumPairPlanesGo(pair []uint64, n int) (sums [PairPlanes]int32) {
	for p := range sums {
		for _, v := range pair[p*n : (p+1)*n] {
			sums[p] += int32(bits.OnesCount64(v))
		}
	}
	return sums
}

// accumulateFusedGo is the pure-Go body of accumulateFused and its
// oracle: each plane word is loaded once and charged against both stored
// x planes.
func accumulateFusedGo(ft *[Cells]int32, x0s, x1s, planes []uint64, sums *[PairPlanes]int32) {
	n := len(x0s)
	var c [2 * PairPlanes]int32
	for w := 0; w < n; w++ {
		x0, x1 := x0s[w], x1s[w]
		o := w
		for p := 0; p < PairPlanes; p++ {
			v := planes[o]
			c[p] += int32(bits.OnesCount64(x0 & v))
			c[p+PairPlanes] += int32(bits.OnesCount64(x1 & v))
			o += n
		}
	}
	for p := 0; p < PairPlanes; p++ {
		ft[p] += c[p]
		ft[p+PairPlanes] += c[p+PairPlanes]
		ft[p+2*PairPlanes] += sums[p] - c[p] - c[p+PairPlanes]
	}
}
