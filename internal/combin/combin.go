// Package combin provides combination counting, enumeration and
// colexicographic ranking for the exhaustive k-way interaction search.
//
// The search space of third-order epistasis detection over M SNPs is the
// set of C(M,3) strictly increasing triples (i, j, k). The engine splits
// that space into contiguous rank ranges for dynamic scheduling, which
// requires a rank/unrank bijection; the colexicographic order
//
//	rank(i<j<k) = C(k,3) + C(j,2) + C(i,1)
//
// is used because unranking is a sequence of inverse-binomial searches.
package combin

import (
	"fmt"
	"math"
	"math/bits"
)

// Binomial returns C(n, k) as an int64. It panics if the result would
// overflow int64 or if the arguments are negative; a count that comes
// from outside the program goes through BinomialChecked first.
func Binomial(n, k int) int64 {
	r, ok := BinomialChecked(n, k)
	if !ok {
		// Unreachable: every search space is counted after
		// engine.CheckSpace (the public API's checkSpace before any
		// encoding or screen, the coordinator's check of a submitted spec,
		// RunK) has refused an order-k space of n SNPs whose C(n, k) does
		// not fit an int64; the block walk's C(⌈m/8⌉ + k − 1, k), a
		// screen's C(S, k) over at most the n SNPs checked and a block's
		// C(lim, multiplicity) are no larger.
		panic(fmt.Sprintf("combin: C(%d,%d) overflows int64", n, k))
	}
	return r
}

// BinomialChecked returns C(n, k) and true, or false when C(n, k) does not
// fit an int64. It panics if the arguments are negative.
func BinomialChecked(n, k int) (int64, bool) {
	if n < 0 || k < 0 {
		// Unreachable: every argument is a count — a dataset's SNPs, a
		// survivor or block count, an order that WithOrder and
		// engine.CheckSpace (which a cluster submission's spec goes
		// through) bound to [2, contingency.MaxOrder], a multiplicity —
		// or InvBinomial's probe, at least k − 1 ≥ 0.
		panic(fmt.Sprintf("combin: negative argument C(%d,%d)", n, k))
	}
	if k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	// r = C(n-k+i, i) after step i: r * (n-k+i) / i, exact, with the
	// product taken in 128 bits. Each step's result is at most C(n, k),
	// so one above MaxInt64 means C(n, k) is too.
	var r uint64 = 1
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(r, uint64(n-k+i))
		if hi >= uint64(i) {
			return 0, false
		}
		if r, _ = bits.Div64(hi, lo, uint64(i)); r > math.MaxInt64 {
			return 0, false
		}
	}
	return int64(r), true
}

// Triples returns C(m, 3): the number of 3-way combinations of m items.
func Triples(m int) int64 { return Binomial(m, 3) }

// Pairs returns C(m, 2).
func Pairs(m int) int64 { return Binomial(m, 2) }

// Elements returns the paper's work metric for a dataset of m SNPs and
// n samples at interaction order k: nCr(m, k) * n.
func Elements(m, n, k int) float64 {
	return float64(Binomial(m, k)) * float64(n)
}

// RankTriple returns the colexicographic rank of the triple i < j < k.
func RankTriple(i, j, k int) int64 {
	if !(0 <= i && i < j && j < k) {
		// Unreachable from input: no product code ranks a triple (the
		// search unranks tile ranks), and the tests pass triples from
		// ForEachTriple and UnrankTriple.
		panic(fmt.Sprintf("combin: invalid triple (%d,%d,%d)", i, j, k))
	}
	return Binomial(k, 3) + Binomial(j, 2) + int64(i)
}

// UnrankTriple inverts RankTriple: it returns the triple i < j < k with
// the given colexicographic rank, UnrankK's combination at k = 3. m bounds
// the search (the rank must be < C(m,3)).
func UnrankTriple(rank int64, m int) (i, j, k int) {
	var c [3]int
	UnrankK(rank, m, c[:])
	return c[0], c[1], c[2]
}

// InvBinomial returns the largest v < bound with C(v, k) <= target, at
// least k-1. C(v, k) beyond int64 counts as above any target.
func InvBinomial(target int64, k, bound int) int {
	lo, hi := k-1, bound-1 // C(k-1, k) == 0 <= target always holds
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c, ok := BinomialChecked(mid, k); ok && c <= target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// NextTriple advances (i, j, k) to the next triple in colexicographic
// order over m items. It reports false when the input is the last triple.
func NextTriple(i, j, k, m int) (ni, nj, nk int, ok bool) {
	switch {
	case i+1 < j:
		return i + 1, j, k, true
	case j+1 < k:
		return 0, j + 1, k, true
	case k+1 < m:
		return 0, 1, k + 1, true
	default:
		return 0, 0, 0, false
	}
}

// ForEachTriple calls fn for every triple 0 <= i < j < k < m in
// colexicographic order.
func ForEachTriple(m int, fn func(i, j, k int)) {
	for k := 2; k < m; k++ {
		for j := 1; j < k; j++ {
			for i := 0; i < j; i++ {
				fn(i, j, k)
			}
		}
	}
}

// ForEachPair calls fn for every pair 0 <= i < j < m in colexicographic
// order (used by the 2-way search extension).
func ForEachPair(m int, fn func(i, j int)) {
	for j := 1; j < m; j++ {
		for i := 0; i < j; i++ {
			fn(i, j)
		}
	}
}

// Range is a half-open interval [Lo, Hi) of combination ranks.
type Range struct {
	Lo, Hi int64
}

// Len returns the number of ranks in the range.
func (r Range) Len() int64 { return r.Hi - r.Lo }

// TripleBlocks returns the number of blocks of size bs needed to cover m
// items: ceil(m/bs).
func TripleBlocks(m, bs int) int { return (m + bs - 1) / bs }

// Generic k-combination support (the engine's arbitrary-order search
// mode). Combinations are strictly increasing index slices.

// RankK returns the colexicographic rank of the combination comb
// (strictly increasing).
func RankK(comb []int) int64 {
	var r int64
	for i, v := range comb {
		if i > 0 && comb[i-1] >= v {
			// Unreachable from input: no product code ranks a
			// combination (the search unranks tile ranks), and the tests
			// pass combinations from UnrankK and NextK.
			panic(fmt.Sprintf("combin: combination %v not strictly increasing", comb))
		}
		r += Binomial(v, i+1)
	}
	return r
}

// UnrankK writes the combination with the given colexicographic rank
// over m items into dst (whose length fixes k) and returns dst.
func UnrankK(rank int64, m int, dst []int) []int {
	k := len(dst)
	if rank < 0 || rank >= Binomial(m, k) {
		// Unreachable: every caller unranks the first rank of a tile,
		// which the scheduler hands out only inside its space [0, C(m, k))
		// — the block walk's, the k-way search's, a shard of the triple
		// space (sched.Source.Shard refuses a shard outside it, and an
		// empty shard runs no device) — or the next rank of a walk that
		// stops at the space's end.
		panic(fmt.Sprintf("combin: rank %d out of range for C(%d,%d)", rank, m, k))
	}
	bound := m
	for i := k - 1; i >= 0; i-- {
		v := InvBinomial(rank, i+1, bound)
		dst[i] = v
		rank -= Binomial(v, i+1)
		bound = v
	}
	return dst
}

// NextK advances comb to the next combination over m items in
// colexicographic order, in place. It reports false at the last one.
func NextK(comb []int, m int) bool {
	k := len(comb)
	for i := 0; i < k; i++ {
		limit := m
		if i+1 < k {
			limit = comb[i+1]
		}
		if comb[i]+1 < limit {
			comb[i]++
			for j := 0; j < i; j++ {
				comb[j] = j
			}
			return true
		}
	}
	return false
}
