// Package contingency builds the 3^3-row frequency (contingency) tables
// that epistasis scoring consumes. For a SNP triple (X, Y, Z) the table
// counts, per phenotype class, how many samples carry each of the 27
// genotype combinations.
//
// BuildSplit is the paper's V2 pipeline (phenotype-split data,
// genotype-2 planes inferred by NOR) over the word-range primitive
// AccumulateSplit, and BuildReference the per-sample oracle. The
// engine's order-3 kernel is the lanes pass (lanes.go, LaneKernel).
package contingency

import (
	"fmt"
	"math/bits"

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
// (V2): only planes 0 and 1 are stored per class; plane 2 is derived
// word-by-word with NOR, and the known padding inflation of the (2,2,2)
// cell is subtracted afterwards.
func BuildSplit(s *dataset.Split, i, j, k int) Table {
	var t Table
	for class := 0; class < 2; class++ {
		AccumulateSplit(&t.Counts[class],
			s.Plane(class, i, 0), s.Plane(class, i, 1),
			s.Plane(class, j, 0), s.Plane(class, j, 1),
			s.Plane(class, k, 0), s.Plane(class, k, 1))
		t.Counts[class][Cells-1] -= int32(s.Pad[class])
	}
	return t
}

// AccumulateSplit adds, to the 27 accumulators, the genotype-combination
// counts contributed by the given word range of the six stored planes
// (x0, x1, y0, y1, z0, z1). Genotype-2 words are derived by NOR without
// tail masking: if the range covers a padded final word, the caller must
// subtract the padding from accumulator 26 afterwards.
func AccumulateSplit(ft *[Cells]int32, x0s, x1s, y0s, y1s, z0s, z1s []uint64) {
	n := len(x0s)
	if n == 0 {
		return
	}
	_ = x1s[n-1]
	_ = y0s[n-1]
	_ = y1s[n-1]
	_ = z0s[n-1]
	_ = z1s[n-1]
	for w := 0; w < n; w++ {
		x0, x1 := x0s[w], x1s[w]
		y0, y1 := y0s[w], y1s[w]
		z0, z1 := z0s[w], z1s[w]
		x2 := ^(x0 | x1)
		y2 := ^(y0 | y1)
		z2 := ^(z0 | z1)
		xs := [3]uint64{x0, x1, x2}
		ys := [3]uint64{y0, y1, y2}
		zs := [3]uint64{z0, z1, z2}
		idx := 0
		for gx := 0; gx < 3; gx++ {
			for gy := 0; gy < 3; gy++ {
				xy := xs[gx] & ys[gy]
				ft[idx] += int32(bits.OnesCount64(xy & zs[0]))
				ft[idx+1] += int32(bits.OnesCount64(xy & zs[1]))
				ft[idx+2] += int32(bits.OnesCount64(xy & zs[2]))
				idx += 3
			}
		}
	}
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
