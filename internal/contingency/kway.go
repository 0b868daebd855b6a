package contingency

import (
	"fmt"
	"math/bits"

	"trigene/internal/dataset"
)

// Arbitrary-order tables. The paper motivates orders beyond three
// ("interactions of three or more SNPs"); this generic builder covers
// k in [2, MaxOrder], producing 3^k cells per class with the same
// phenotype-split + NOR-inference strategy as the specialized kernels.
// Cell index: base-3, first SNP most significant (matching ComboIndex
// for k = 3 and PairComboIndex for k = 2).

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
		// reach BuildSplitK's plane walk.
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
// CellsK(len(snps)) and arrive zeroed). Genotype-2 planes are derived
// with NOR; the padding inflation of the all-genotype-2 cell is
// corrected internally.
func BuildSplitK(s *dataset.Split, snps []int, ctrl, cases []int32) error {
	k := len(snps)
	if k < 2 || k > MaxOrder {
		return fmt.Errorf("contingency: order %d out of [2,%d]", k, MaxOrder)
	}
	cells := CellsK(k)
	if len(ctrl) != cells || len(cases) != cells {
		return fmt.Errorf("contingency: cell slices %d/%d, want %d", len(ctrl), len(cases), cells)
	}
	for class := 0; class < 2; class++ {
		dst := ctrl
		if class == dataset.Case {
			dst = cases
		}
		words := s.Words[class]
		var planes [MaxOrder][2][]uint64
		for d, snp := range snps {
			planes[d][0] = s.Plane(class, snp, 0)
			planes[d][1] = s.Plane(class, snp, 1)
		}
		var level [MaxOrder + 1]uint64 // partial AND per recursion depth
		var geno [MaxOrder][3]uint64   // per-SNP plane words for the current word
		for w := 0; w < words; w++ {
			for d := 0; d < k; d++ {
				g0, g1 := planes[d][0][w], planes[d][1][w]
				geno[d][0], geno[d][1], geno[d][2] = g0, g1, ^(g0 | g1)
			}
			// Iterative DFS over the 3^k cells with shared AND
			// prefixes: digits holds the current genotype per depth.
			level[0] = ^uint64(0)
			var digits [MaxOrder]int
			d := 0
			for {
				if d == k {
					cell := 0
					for i := 0; i < k; i++ {
						cell = cell*3 + digits[i]
					}
					dst[cell] += int32(bits.OnesCount64(level[k]))
					d--
					for d >= 0 {
						digits[d]++
						if digits[d] < 3 {
							break
						}
						digits[d] = 0
						d--
					}
					if d < 0 {
						break
					}
					level[d+1] = level[d] & geno[d][digits[d]]
					d++
					continue
				}
				level[d+1] = level[d] & geno[d][digits[d]]
				d++
			}
		}
		// The all-genotype-2 cell absorbed the padding ones.
		dst[cells-1] -= int32(s.Pad[class])
	}
	return nil
}

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
