package contingency

import (
	"math/bits"

	"trigene/internal/dataset"
)

// Pairwise (second-order) tables. Two-way epistasis detection — the
// problem GBOOST, episNP and GWISFI target, and MPI3SNP's order-2 mode
// — needs 3^2 = 9 genotype-combination counts per class. To reuse the
// third-order objectives unchanged, pair counts are embedded in a
// Table at cells gx*3 + gy (all other cells stay zero; empty cells
// contribute exactly nothing to K2, MI and Gini).

// PairCells is the number of genotype combinations for a SNP pair.
const PairCells = 9

// PairCounted is how many of a pair's nine cells BuildPair counts from
// the planes (the stored-genotype products x0∧y0, x0∧y1, x1∧y0, x1∧y1);
// the other five follow from plane popcounts. The triple kernel's
// counterpart is TripleCounted.
const PairCounted = 4

// PairComboIndex returns the embedded table row for (gx, gy).
func PairComboIndex(gx, gy int) int { return gx*3 + gy }

// BuildPair sets the nine embedded pair cells of one class from the
// class's four stored planes of SNPs x and y (whole planes, equal
// lengths), their popcounts xn = {|x0|, |x1|} and yn = {|y0|, |y1|},
// and the class size n. Only the four cells of stored genotypes are
// counted, 4 AND+POPCNT per word; every sample carries exactly one
// genotype of each SNP, so the rest follow:
//
//	c02 = |x0| − c00 − c01    c20 = |y0| − c00 − c10
//	c12 = |x1| − c10 − c11    c21 = |y1| − c01 − c11
//	c22 = n − the other eight
//
// No genotype-2 plane is formed, so pad bits never enter a count and
// there is no pad correction. Cells 9..26 of ft are left alone. The
// planes of a SNP must be disjoint, which the dataset loaders guarantee.
func BuildPair(ft *[Cells]int32, x0s, x1s, y0s, y1s []uint64, xn, yn [2]int32, n int32) {
	buildPair(ft, x0s, x1s, y0s, y1s, xn, yn, n, hasAVX512)
}

// buildPair counts with the chosen body and derives. Like the fused
// kernel's, the vector body takes every non-empty plane, ragged or
// shorter than a vector.
func buildPair(ft *[Cells]int32, x0s, x1s, y0s, y1s []uint64, xn, yn [2]int32, n int32, vector bool) {
	words := len(x0s)
	x1s, y0s, y1s = x1s[:words], y0s[:words], y1s[:words]
	var c [PairCounted]int32
	if vector && words > 0 {
		countPairAVX512(&c, &x0s[0], &x1s[0], &y0s[0], &y1s[0], words)
	} else {
		countPairGo(&c, x0s, x1s, y0s, y1s)
	}
	c00, c01, c10, c11 := c[0], c[1], c[2], c[3]
	c02 := xn[0] - c00 - c01
	c12 := xn[1] - c10 - c11
	c20 := yn[0] - c00 - c10
	c21 := yn[1] - c01 - c11
	ft[0], ft[1], ft[2] = c00, c01, c02
	ft[3], ft[4], ft[5] = c10, c11, c12
	ft[6], ft[7] = c20, c21
	ft[8] = n - xn[0] - xn[1] - c20 - c21
}

// countPairGo is the pure-Go body of BuildPair's count and its oracle.
func countPairGo(c *[PairCounted]int32, x0s, x1s, y0s, y1s []uint64) {
	var c00, c01, c10, c11 int
	for w, x0 := range x0s {
		x1, y0, y1 := x1s[w], y0s[w], y1s[w]
		c00 += bits.OnesCount64(x0 & y0)
		c01 += bits.OnesCount64(x0 & y1)
		c10 += bits.OnesCount64(x1 & y0)
		c11 += bits.OnesCount64(x1 & y1)
	}
	*c = [PairCounted]int32{int32(c00), int32(c01), int32(c10), int32(c11)}
}

// BuildReferencePair computes the embedded pair table directly from
// the genotype matrix, one sample at a time (the test oracle).
func BuildReferencePair(mx *dataset.Matrix, i, j int) Table {
	var t Table
	for s := 0; s < mx.Samples(); s++ {
		combo := PairComboIndex(int(mx.Geno(i, s)), int(mx.Geno(j, s)))
		t.Counts[mx.Phen(s)][combo]++
	}
	return t
}
