package contingency

import (
	"fmt"
	"math/bits"

	"trigene/internal/dataset"
)

// Arbitrary-order tables. The paper motivates orders beyond three
// ("interactions of three or more SNPs"); the split builder covers k in
// [2, MaxOrder], producing 3^k cells per class with the paper's V2
// strategy, phenotype split and genotype 2 by NOR. BuildSplit is its
// order-3 table. Cell index: base-3, first SNP most significant
// (matching ComboIndex for k = 3 and PairComboIndex for k = 2).

// MaxOrder bounds the generic builder: 3^7 cells of two int32 columns
// still fit comfortably in L1, and int64 rank arithmetic stays exact
// far beyond any practical M at k = 7.
const MaxOrder = 7

// CellsK returns 3^k.
func CellsK(k int) int {
	if k < 1 || k > MaxOrder {
		// Unreachable: every caller checks the order first —
		// BuildSplitK, BuildReferenceK, engine.RunK and permtest's
		// checkCombo against [2, MaxOrder] or [1, MaxOrder], and bench's
		// oracle takes it from a searched candidate. The slices it sizes
		// reach BuildSplitK's product expansion.
		panic(fmt.Sprintf("contingency: order %d out of [1,%d]", k, MaxOrder))
	}
	c := 1
	for i := 0; i < k; i++ {
		c *= 3
	}
	return c
}

// BuildSplitK accumulates the 3^k-cell counts for the given SNP
// combination into ctrl and cases (which must both have length
// CellsK(len(snps)) and arrive zeroed). Genotype-2 words are derived
// with NOR; the padding inflation of the all-genotype-2 cell is
// corrected internally.
//
// It runs breadth first, a word at a time: the first k−1 SNPs' genotype
// words expand level by level into the 3^(k−1) AND products of their
// genotype combinations, product i of the combination whose base-3
// digits are i, and each product is counted against the last SNP's
// three words into cells 3i, 3i+1 and 3i+2.
func BuildSplitK(s *dataset.Split, snps []int, ctrl, cases []int32) error {
	k := len(snps)
	if k < 2 || k > MaxOrder {
		return fmt.Errorf("contingency: order %d out of [2,%d]", k, MaxOrder)
	}
	cells := CellsK(k)
	if len(ctrl) != cells || len(cases) != cells {
		return fmt.Errorf("contingency: cell slices %d/%d, want %d", len(ctrl), len(cases), cells)
	}
	var prod [maxProducts]uint64
	for class := 0; class < 2; class++ {
		dst := ctrl
		if class == dataset.Case {
			dst = cases
		}
		var planes [MaxOrder][2][]uint64
		for d, snp := range snps {
			planes[d][0] = s.Plane(class, snp, 0)
			planes[d][1] = s.Plane(class, snp, 1)
		}
		z0s, z1s := planes[k-1][0], planes[k-1][1]
		for w := range z0s {
			g0, g1 := planes[0][0][w], planes[0][1][w]
			prod[0], prod[1], prod[2] = g0, g1, ^(g0 | g1)
			n := 3
			for d := 1; d < k-1; d++ {
				g0, g1 := planes[d][0][w], planes[d][1][w]
				g2 := ^(g0 | g1)
				for i := n - 1; i >= 0; i-- {
					p := prod[i]
					prod[3*i], prod[3*i+1], prod[3*i+2] = p&g0, p&g1, p&g2
				}
				n *= 3
			}
			z0, z1 := z0s[w], z1s[w]
			z2 := ^(z0 | z1)
			for i, p := range prod[:n] {
				c := dst[3*i : 3*i+3]
				c[0] += int32(bits.OnesCount64(p & z0))
				c[1] += int32(bits.OnesCount64(p & z1))
				c[2] += int32(bits.OnesCount64(p & z2))
			}
		}
		// The all-genotype-2 cell absorbed the padding ones.
		dst[cells-1] -= int32(s.Pad[class])
	}
	return nil
}

// maxProducts is 3^(MaxOrder−1), the AND products BuildSplitK expands
// per word at the largest order.
const maxProducts = 729

// BuildReferenceK is the per-sample oracle for arbitrary order.
func BuildReferenceK(mx *dataset.Matrix, snps []int, ctrl, cases []int32) error {
	k := len(snps)
	if k < 1 || k > MaxOrder {
		return fmt.Errorf("contingency: order %d out of [1,%d]", k, MaxOrder)
	}
	cells := CellsK(k)
	if len(ctrl) != cells || len(cases) != cells {
		return fmt.Errorf("contingency: cell slices %d/%d, want %d", len(ctrl), len(cases), cells)
	}
	for smp := 0; smp < mx.Samples(); smp++ {
		cell := 0
		for _, snp := range snps {
			cell = cell*3 + int(mx.Geno(snp, smp))
		}
		if mx.Phen(smp) == dataset.Case {
			cases[cell]++
		} else {
			ctrl[cell]++
		}
	}
	return nil
}
