package contingency

import "math/bits"

// PairPlanes is the number of cached (gy, gz) pair-AND planes a fused
// kernel pass consumes: the 3x3 genotype products of the y and z bit
// planes.
const PairPlanes = 9

// TripleCounted is how many of a triple's 27 cells the lanes pass counts
// per (y, z): the products of stored planes x_a ∧ y_b ∧ z_c, a, b, c in
// {0, 1} (LaneKernel.TripleLanes); the other 19 are derived. The pair
// kernel's counterpart is PairCounted.
const TripleCounted = 8

// Kernel names the implementation behind the lanes pass, the pair kernel
// and PairBlock on this host:
// "avx512-vpopcntdq" when the CPU and OS support it and the build holds
// the assembly, "portable" (the pure-Go bodies) otherwise.
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

// PairBlock is the seeded extension's state for one (i1, i2) pair over
// one word range: the nine pair-AND planes (plane gy*3+gz holds
// ys[gy] & zs[gz], genotype 2 derived by NOR, plane-major) and the
// popcount of each. Build fills it once per pair; Accumulate then
// charges any number of x plane pairs against it. With the sums cached,
// an x costs 18 AND+POPCNT per word instead of 27: the nine cells of x
// genotype 2 follow by subtraction, because every sample of a pair
// plane carries exactly one x genotype. That needs x0 & x1 == 0 in
// every word, which the dataset loaders guarantee.
type PairBlock struct {
	planes []uint64
	sums   [PairPlanes]int32
	oracle bool
}

// Init sizes the block for tiles of up to maxWords words, reusing its
// buffer when it is large enough. oracle pins the pure-Go bodies (the
// reference pipeline) whatever the host supports.
func (b *PairBlock) Init(maxWords int, oracle bool) {
	if cap(b.planes) < PairPlanes*maxWords {
		b.planes = make([]uint64, PairPlanes*maxWords)
	}
	b.oracle = oracle
}

// vector reports whether the block runs the host's assembly bodies.
func (b *PairBlock) vector() bool { return hasAVX512 && !b.oracle }

// Build fills the block from the given y/z word ranges (equal lengths,
// at most the Init size): 2 NOR + 9 AND + 9 POPCNT per word, paid once
// per pair instead of once per x.
func (b *PairBlock) Build(y0s, y1s, z0s, z1s []uint64) {
	b.planes = b.planes[:PairPlanes*len(y0s)]
	buildPairBlock(b.planes, &b.sums, y0s, y1s, z0s, z1s, b.vector())
}

// Accumulate adds the genotype-combination counts of one x plane pair
// over the word range the block was built for. Padding handling matches
// AccumulateSplit: the pad bits land in plane 8's sum and from there in
// accumulator 26, and the caller subtracts them.
func (b *PairBlock) Accumulate(ft *[Cells]int32, x0s, x1s []uint64) {
	accumulateFused(ft, x0s, x1s, b.planes, &b.sums, b.vector())
}

// buildPairBlock and accumulateFused pick the body. The vector one takes
// every non-empty tile, ragged or shorter than a vector: one masked pass
// beats the Go loop from the first word up (measured on Sapphire Rapids).
// A nil sums builds the planes alone.
func buildPairBlock(planes []uint64, sums *[PairPlanes]int32, y0s, y1s, z0s, z1s []uint64, vector bool) {
	n := len(y0s)
	planes, y1s, z0s, z1s = planes[:PairPlanes*n], y1s[:n], z0s[:n], z1s[:n]
	switch {
	case !vector || n == 0:
		if sums == nil {
			sums = new([PairPlanes]int32)
		}
		buildPairBlockGo(planes, sums, y0s, y1s, z0s, z1s)
	default:
		buildPairPlanesAVX512(&planes[0], &y0s[0], &y1s[0], &z0s[0], &z1s[0], n)
		if sums != nil {
			sumPairPlanesAVX512(sums, &planes[0], n)
		}
	}
}

func accumulateFused(ft *[Cells]int32, x0s, x1s, planes []uint64, sums *[PairPlanes]int32, vector bool) {
	n := len(x0s)
	x1s, planes = x1s[:n], planes[:PairPlanes*n]
	if vector && n > 0 {
		accumulateFusedAVX512(ft, &x0s[0], &x1s[0], &planes[0], sums, n)
		return
	}
	accumulateFusedGo(ft, x0s, x1s, planes, sums)
}

// buildPairBlockGo is the pure-Go body of Build and its oracle.
func buildPairBlockGo(dst []uint64, sums *[PairPlanes]int32, y0s, y1s, z0s, z1s []uint64) {
	n := len(y0s)
	var s0, s1, s2, s3, s4, s5, s6, s7, s8 int
	for w := 0; w < n; w++ {
		y0, y1 := y0s[w], y1s[w]
		z0, z1 := z0s[w], z1s[w]
		y2, z2 := ^(y0 | y1), ^(z0 | z1)
		v0, v1, v2 := y0&z0, y0&z1, y0&z2
		v3, v4, v5 := y1&z0, y1&z1, y1&z2
		v6, v7, v8 := y2&z0, y2&z1, y2&z2
		dst[w], dst[n+w], dst[2*n+w] = v0, v1, v2
		dst[3*n+w], dst[4*n+w], dst[5*n+w] = v3, v4, v5
		dst[6*n+w], dst[7*n+w], dst[8*n+w] = v6, v7, v8
		s0 += bits.OnesCount64(v0)
		s1 += bits.OnesCount64(v1)
		s2 += bits.OnesCount64(v2)
		s3 += bits.OnesCount64(v3)
		s4 += bits.OnesCount64(v4)
		s5 += bits.OnesCount64(v5)
		s6 += bits.OnesCount64(v6)
		s7 += bits.OnesCount64(v7)
		s8 += bits.OnesCount64(v8)
	}
	*sums = [PairPlanes]int32{int32(s0), int32(s1), int32(s2), int32(s3), int32(s4), int32(s5), int32(s6), int32(s7), int32(s8)}
}

// accumulateFusedGo is the pure-Go body of Accumulate and its oracle:
// each cached word is loaded once and charged against both stored x
// planes.
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

// The three functions below keep the pre-PairBlock entry points for
// callers that hold bare pair planes (PairPlanes*len(x0s) words, laid
// out by BuildPairPlanes over the same word range): they run the same
// bodies, re-deriving the plane sums on every call.

// BuildPairPlanes fills dst with the nine pair-AND planes of the given
// y/z word ranges.
func BuildPairPlanes(dst []uint64, y0s, y1s, z0s, z1s []uint64) {
	buildPairBlock(dst, nil, y0s, y1s, z0s, z1s, hasAVX512)
}

// sumPairPlanes recounts the sums of bare pair planes of n words each.
func sumPairPlanes(pair []uint64, n int) (sums [PairPlanes]int32) {
	pair = pair[:PairPlanes*n]
	if hasAVX512 && n > 0 {
		sumPairPlanesAVX512(&sums, &pair[0], n)
		return sums
	}
	for p := range sums {
		for _, v := range pair[p*n : (p+1)*n] {
			sums[p] += int32(bits.OnesCount64(v))
		}
	}
	return sums
}

// AccumulateFusedLanes8 adds the counts of one x plane pair against
// bare pair planes.
func AccumulateFusedLanes8(ft *[Cells]int32, x0s, x1s, pair []uint64) {
	sums := sumPairPlanes(pair, len(x0s))
	accumulateFused(ft, x0s, x1s, pair, &sums, hasAVX512)
}

// AccumulateFusedX2 adds the counts of two x plane pairs against the
// same bare pair planes.
func AccumulateFusedX2(fta, ftb *[Cells]int32, xa0s, xa1s, xb0s, xb1s, pair []uint64) {
	sums := sumPairPlanes(pair, len(xa0s))
	accumulateFused(fta, xa0s, xa1s, pair, &sums, hasAVX512)
	accumulateFused(ftb, xb0s[:len(xa0s)], xb1s, pair, &sums, hasAVX512)
}
