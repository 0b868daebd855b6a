// Package score implements the objective functions that rank SNP
// combinations from their contingency tables.
//
// The paper uses the Bayesian K2 score (equation 1): for each genotype
// combination i with class counts r_i0 (controls) and r_i1 (cases) and
// row total r_i = r_i0 + r_i1,
//
//	K2 = Σ_i [ Σ_{b=1}^{r_i+1} log b  −  Σ_j Σ_{d=1}^{r_ij} log d ]
//	   = Σ_i [ lnFact(r_i + 1) − lnFact(r_i0) − lnFact(r_i1) ]
//
// The combination with the LOWEST K2 score is the best candidate.
// Mutual information (the MPI3SNP objective, higher is better) and Gini
// impurity (lower is better) are provided as alternatives.
package score

import (
	"fmt"
	"math"
	"sync"

	"trigene/internal/contingency"
	"trigene/internal/dataset"
)

// LnFact caches ln(n!) for n in [0, max].
type LnFact struct {
	table []float64
}

// lnFacts is the one ln(n!) table of the process, as long as the largest
// NewLnFact has been asked for: entry n depends on n alone, so every
// LnFact is a prefix of it and a search does not redo thousands of
// logarithms per call. Tables handed out are never written again; growing
// copies.
var lnFacts struct {
	sync.Mutex
	table []float64
}

// NewLnFact returns a table of ln(n!) up to and including maxN.
func NewLnFact(maxN int) *LnFact {
	if maxN < 0 {
		// Unreachable from input: New refuses a sample count outside
		// [0, MaxSamples], and every other caller passes a dataset's
		// sample count plus one or the term table's fixed size.
		panic(fmt.Sprintf("score: negative table size %d", maxN))
	}
	lnFacts.Lock()
	defer lnFacts.Unlock()
	if have := len(lnFacts.table); have <= maxN {
		t := make([]float64, maxN+1)
		copy(t, lnFacts.table)
		for i := max(have, 2); i <= maxN; i++ {
			t[i] = t[i-1] + math.Log(float64(i))
		}
		lnFacts.table = t
	}
	return &LnFact{table: lnFacts.table[: maxN+1 : maxN+1]}
}

// Max returns the largest argument the table covers.
func (l *LnFact) Max() int { return len(l.table) - 1 }

// At returns ln(n!).
func (l *LnFact) At(n int) float64 {
	return l.table[n]
}

// K2Term is the K2 term of one row with r0 controls and r1 cases,
// (lnFact(r0+r1+1) − lnFact(r0)) − lnFact(r1): every K2 sum in the
// repository adds these terms in row order, so partial sums taken by one
// caller and full scores taken by another agree to the bit. A term is
// ≥ +0 (TestK2TermsNeverNegative) and an empty row's is exactly +0.
func K2Term(lf *LnFact, r0, r1 int) float64 {
	return lf.At(r0+r1+1) - lf.At(r0) - lf.At(r1)
}

// checkCells checks that a table given as paired per-class cell slices
// has as many rows in each class.
func checkCells(controls, cases []int32) {
	if len(controls) != len(cases) {
		// Unreachable: every caller slices both classes from one cell
		// count — Score from a Table's rows, ScoreColumns from its rows
		// argument, the engine's k-way rank body from its arena (sizeK),
		// permtest from its candidate's cells, bench's oracle from CellsK.
		panic("score: cell count mismatch")
	}
}

func entropyTerm(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return -p * math.Log(p)
}

// Objective ranks contingency tables. Implementations must be safe for
// concurrent use.
type Objective interface {
	// Name identifies the objective in reports and CLIs.
	Name() string
	// Score evaluates a table: ScoreCells over its contingency.Cells
	// rows. An embedded pair table (rows 9..26 empty) scores as its nine
	// rows do, since an empty row adds exactly +0 to each objective's sum.
	Score(t *contingency.Table) float64
	CellScorer
	// Better reports whether score a beats score b.
	Better(a, b float64) bool
	// Worst is a sentinel no real table can beat.
	Worst() float64
}

// CellScorer scores a table of any order given as paired per-class cell
// slices, row i holding controls[i] controls and cases[i] cases: 9 rows
// for a pair, 27 for a triple, 3^k for order k. Both slices must have the
// same length. Every Objective is one.
type CellScorer interface {
	ScoreCells(controls, cases []int32) float64
}

// K2Objective scores with the Bayesian K2 criterion (lower is better).
type K2Objective struct {
	lf *LnFact
	// terms is the process's K2 term table, which the lanes pass looks
	// small counts up in.
	terms *[termSide * termSide]float64
}

// NewK2 returns a K2 objective able to score tables over at most
// maxSamples samples.
func NewK2(maxSamples int) *K2Objective {
	return &K2Objective{lf: NewLnFact(maxSamples + 1), terms: k2Terms()}
}

// termSide bounds the counts of K2's term table: a row whose two counts
// are both below it has its term looked up whole.
const termSide = 64

// k2Terms returns the process's one K2 term table, built on first use:
// entry r0*termSide + r1 is K2Term of (r0, r1), computed by K2Term itself
// from the shared lnFacts prefix, so it has K2Term's bits
// (TestTermTableIsK2Term). At 64 x 64 float64s it is 32 KiB, an L1's
// worth: a lane group of small tables takes one gather per row from it
// where the ln-factorial table takes three.
var k2Terms = sync.OnceValue(func() *[termSide * termSide]float64 {
	lf := NewLnFact(2 * termSide) // r0 + r1 + 1 <= 127
	t := new([termSide * termSide]float64)
	for r0 := 0; r0 < termSide; r0++ {
		for r1 := 0; r1 < termSide; r1++ {
			t[r0*termSide+r1] = K2Term(lf, r0, r1)
		}
	}
	return t
})

// LnFact returns the objective's ln(n!) table, for callers that sum
// K2Term themselves.
func (o *K2Objective) LnFact() *LnFact { return o.lf }

// Name implements Objective.
func (o *K2Objective) Name() string { return "k2" }

// Score implements Objective.
func (o *K2Objective) Score(t *contingency.Table) float64 {
	return o.ScoreCells(t.Counts[0][:], t.Counts[1][:])
}

// ScoreCells implements CellScorer: the K2 terms of the rows, summed in
// row order.
func (o *K2Objective) ScoreCells(controls, cases []int32) float64 {
	checkCells(controls, cases)
	s := 0.0
	for i, c := range controls {
		s += K2Term(o.lf, int(c), int(cases[i]))
	}
	return s
}

// Better implements Objective: lower K2 wins.
func (o *K2Objective) Better(a, b float64) bool { return a < b }

// Worst implements Objective.
func (o *K2Objective) Worst() float64 { return math.Inf(1) }

// MIObjective scores with mutual information (higher is better).
type MIObjective struct{}

// Name implements Objective.
func (MIObjective) Name() string { return "mi" }

// Score implements Objective.
func (o MIObjective) Score(t *contingency.Table) float64 {
	return o.ScoreCells(t.Counts[0][:], t.Counts[1][:])
}

// ScoreCells implements CellScorer: I(combo; class) in nats, as
// H(class) + H(combo) − H(combo, class), each entropy summed in row
// order and the joint one a class at a time.
func (MIObjective) ScoreCells(controls, cases []int32) float64 {
	checkCells(controls, cases)
	var n0, n1 int
	for i, c := range controls {
		n0 += int(c)
		n1 += int(cases[i])
	}
	n := float64(n0 + n1)
	if n == 0 {
		return 0
	}
	hClass := entropyTerm(float64(n0)/n) + entropyTerm(float64(n1)/n)
	var hCombo, hJoint float64
	for i, c := range controls {
		c0, c1 := float64(c), float64(cases[i])
		hCombo += entropyTerm((c0 + c1) / n)
		hJoint += entropyTerm(c0 / n)
		hJoint += entropyTerm(c1 / n)
	}
	mi := hClass + hCombo - hJoint
	if mi < 0 { // guard tiny negative rounding residue
		mi = 0
	}
	return mi
}

// Better implements Objective: higher MI wins.
func (MIObjective) Better(a, b float64) bool { return a > b }

// Worst implements Objective.
func (MIObjective) Worst() float64 { return math.Inf(-1) }

// GiniObjective scores with Gini impurity (lower is better).
type GiniObjective struct{}

// Name implements Objective.
func (GiniObjective) Name() string { return "gini" }

// Score implements Objective.
func (o GiniObjective) Score(t *contingency.Table) float64 {
	return o.ScoreCells(t.Counts[0][:], t.Counts[1][:])
}

// ScoreCells implements CellScorer: the count-weighted Gini impurity of
// the class split across the rows, summed in row order.
func (GiniObjective) ScoreCells(controls, cases []int32) float64 {
	checkCells(controls, cases)
	total := 0
	for i, c := range controls {
		total += int(c) + int(cases[i])
	}
	n := float64(total)
	if n == 0 {
		return 0
	}
	g := 0.0
	for i, c := range controls {
		c0, c1 := float64(c), float64(cases[i])
		row := c0 + c1
		if row == 0 {
			continue
		}
		p := c0 / row
		g += row / n * 2 * p * (1 - p)
	}
	return g
}

// Better implements Objective: lower impurity wins.
func (GiniObjective) Better(a, b float64) bool { return a < b }

// Worst implements Objective.
func (GiniObjective) Worst() float64 { return math.Inf(1) }

// MaxSamples is the largest sample count New sizes an objective for:
// the N every dataset reader accepts (dataset.MaxSamples). K2's ln(n!)
// table at that size takes 128 MiB.
const MaxSamples = dataset.MaxSamples

// New returns the named objective ("k2", "mi" or "gini") sized for
// datasets of at most maxSamples samples, which must lie in
// [0, MaxSamples].
func New(name string, maxSamples int) (Objective, error) {
	if maxSamples < 0 || maxSamples > MaxSamples {
		return nil, fmt.Errorf("score: sample count %d out of [0, %d]", maxSamples, MaxSamples)
	}
	switch name {
	case "k2":
		return NewK2(maxSamples), nil
	case "mi":
		return MIObjective{}, nil
	case "gini":
		return GiniObjective{}, nil
	default:
		return nil, fmt.Errorf("score: unknown objective %q (want k2, mi or gini)", name)
	}
}
