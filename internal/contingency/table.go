// Package contingency builds the 3^3-row frequency (contingency) tables
// that epistasis scoring consumes. For a SNP triple (X, Y, Z) the table
// counts, per phenotype class, how many samples carry each of the 27
// genotype combinations.
//
// BuildSplit is the paper's V2 pipeline (phenotype-split data,
// genotype-2 planes inferred by NOR) at order 3, BuildSplitK's table at
// k = 3 (kway.go, the split builder of every order), and BuildReference
// the per-sample oracle. The engine's order-3 kernel is the lanes pass
// (lanes.go, LaneKernel).
package contingency

import (
	"fmt"

	"trigene/internal/dataset"
)

// Cells is the number of genotype combinations for a SNP triple: 3^3.
const Cells = 27

// ComboIndex returns the table row for genotype combination
// (gx, gy, gz): gx*9 + gy*3 + gz.
func ComboIndex(gx, gy, gz int) int { return gx*9 + gy*3 + gz }

// Table is a 27-row, two-column frequency table. Counts[class][combo]
// is the number of samples of that phenotype class carrying the combo.
type Table struct {
	Counts [2][Cells]int32
}

// Cell returns the count for (class, gx, gy, gz).
func (t *Table) Cell(class, gx, gy, gz int) int32 {
	return t.Counts[class][ComboIndex(gx, gy, gz)]
}

// ClassTotal returns the sum of all 27 cells of a class. For a table
// built over a full dataset it equals the number of samples in the
// class.
func (t *Table) ClassTotal(class int) int {
	total := 0
	for _, c := range t.Counts[class] {
		total += int(c)
	}
	return total
}

// Validate checks the row sums against the expected class sizes and
// that no cell is negative.
func (t *Table) Validate(controls, cases int) error {
	for class, want := range [2]int{controls, cases} {
		for combo, c := range t.Counts[class] {
			if c < 0 {
				return fmt.Errorf("contingency: negative cell class=%d combo=%d: %d", class, combo, c)
			}
		}
		if got := t.ClassTotal(class); got != want {
			return fmt.Errorf("contingency: class %d total %d, want %d", class, got, want)
		}
	}
	return nil
}

// Equal reports whether two tables hold identical counts.
func (t *Table) Equal(o *Table) bool { return t.Counts == o.Counts }

// String renders the table for debugging.
func (t *Table) String() string {
	s := "combo  ctrl  case\n"
	for combo := 0; combo < Cells; combo++ {
		s += fmt.Sprintf("(%d%d%d)  %5d %5d\n", combo/9, combo/3%3, combo%3,
			t.Counts[dataset.Control][combo], t.Counts[dataset.Case][combo])
	}
	return s
}

// BuildSplit constructs the table with the phenotype-split pipeline
// (V2): BuildSplitK over the three SNPs, into the table's two columns.
func BuildSplit(s *dataset.Split, i, j, k int) Table {
	var t Table
	// Three SNPs and 27 cells a class: BuildSplitK has nothing to refuse.
	_ = BuildSplitK(s, []int{i, j, k}, t.Counts[dataset.Control][:], t.Counts[dataset.Case][:])
	return t
}

// BuildReference computes the table directly from the genotype matrix,
// one sample at a time. It is the oracle the optimized builders are
// verified against.
func BuildReference(mx *dataset.Matrix, i, j, k int) Table {
	var t Table
	for s := 0; s < mx.Samples(); s++ {
		combo := ComboIndex(int(mx.Geno(i, s)), int(mx.Geno(j, s)), int(mx.Geno(k, s)))
		t.Counts[mx.Phen(s)][combo]++
	}
	return t
}
