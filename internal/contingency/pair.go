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

// PairCounted is how many of a pair's nine cells PairLanes counts from
// the planes (the stored-genotype products x0∧y0, x0∧y1, x1∧y0, x1∧y1);
// the other five follow from plane popcounts. The triple lanes pass's
// counterpart is TripleCounted.
const PairCounted = 4

// PairComboIndex returns the embedded table row for (gx, gy).
func PairComboIndex(gx, gy int) int { return gx*3 + gy }

// PairLanes sets rows 0..PairCells-1 of lt, on the kernel's bodies, to one
// class's embedded pair tables of the pairs (x+l, y), lane l < valid
// (1..Lanes): row PairComboIndex(gx, gy), column l. data is the class's
// planes as dataset.Split stores them, plane g of SNP i at (2i+g)*words,
// so the x SNPs of consecutive lanes lie one stride apart; marg[i] =
// {|plane 0|, |plane 1|} of SNP i in the class and n is the class size.
// Only the four cells of stored genotypes are counted, 4 AND+POPCNT per
// word and lane; every sample carries exactly one genotype of each SNP,
// so the other five follow, for all lanes at once:
//
//	c02 = |x0| − c00 − c01    c20 = |y0| − c00 − c10
//	c12 = |x1| − c10 − c11    c21 = |y1| − c01 − c11
//	c22 = n − |x0| − |x1| − c20 − c21
//
// No genotype-2 plane is formed, so pad bits never enter a count and
// there is no pad correction. Rows 9..26 of lt are left alone, and what
// rows 0..8 hold in the lanes at and past valid is unspecified. The planes
// of a SNP must be disjoint, which the dataset loaders guarantee.
func (k LaneKernel) PairLanes(lt *LaneTable, data []uint64, words, x, valid, y int, marg [][2]int32, n int32) {
	pairLanes(lt, data, words, x, valid, y, marg, n, k.vector())
}

// pairLanes counts with the chosen body and derives. Like the fused
// kernel's, the vector body takes every non-empty plane, ragged or
// shorter than a vector.
func pairLanes(lt *LaneTable, data []uint64, words, x, valid, y int, marg [][2]int32, n int32, vector bool) {
	if valid < 1 || valid > Lanes {
		// Unreachable: the engine's pairTables calls it only for valid > 0
		// and at most lim1, a block's SNP count (blockLim caps it at
		// Lanes), and the seeded pass with valid = 1. The vector body reads
		// valid x SNPs' planes and marginals through raw pointers.
		panic("contingency: pair lanes out of range")
	}
	xs := data[2*x*words : 2*(x+valid)*words]
	ys := data[2*y*words : 2*(y+1)*words]
	xm, ym := marg[x:x+valid], &marg[y]
	if vector && words > 0 {
		pairLanesAVX512(lt, &xs[0], &ys[0], &xm[0], ym, int(n), words, valid)
		return
	}
	for l, xn := range xm {
		x := xs[2*l*words : 2*(l+1)*words]
		var c [PairCounted]int32
		countPairGo(&c, x[:words], x[words:], ys[:words], ys[words:])
		c00, c01, c10, c11 := c[0], c[1], c[2], c[3]
		c20, c21 := ym[0]-c00-c10, ym[1]-c01-c11
		column := [PairCells]int32{c00, c01, xn[0] - c00 - c01, c10, c11, xn[1] - c10 - c11,
			c20, c21, n - xn[0] - xn[1] - c20 - c21}
		for row, v := range column {
			lt[row][l] = v
		}
	}
}

// countPairGo is the pure-Go body of PairLanes' count and its oracle.
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
