package score

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"trigene/internal/contingency"
)

func TestLnFactValues(t *testing.T) {
	lf := NewLnFact(10)
	if lf.Max() != 10 {
		t.Fatalf("Max = %d", lf.Max())
	}
	want := []float64{0, 0, math.Log(2), math.Log(6), math.Log(24)}
	for n, w := range want {
		if math.Abs(lf.At(n)-w) > 1e-12 {
			t.Errorf("lnFact(%d) = %g, want %g", n, lf.At(n), w)
		}
	}
	// ln(10!) = ln(3628800)
	if math.Abs(lf.At(10)-math.Log(3628800)) > 1e-9 {
		t.Errorf("lnFact(10) = %g", lf.At(10))
	}
}

// TestLnFactIsBuiltOnce pins the process-wide table: whatever sizes were
// asked for before and in whatever order, from several goroutines at
// once, a table covers exactly its own maxN, holds bit for bit the values
// of the recurrence run from scratch, and — once a table at least as long
// exists — costs no logarithms and no table-sized allocation.
func TestLnFactIsBuiltOnce(t *testing.T) {
	const top = 20000
	want := make([]float64, top+1)
	for i := 2; i <= top; i++ {
		want[i] = want[i-1] + math.Log(float64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, maxN := range []int{0, 1, 2, 17 + g, 8193, 1000 * g, top - g, 513} {
				lf := NewLnFact(maxN)
				if lf.Max() != maxN {
					t.Errorf("NewLnFact(%d).Max() = %d", maxN, lf.Max())
					return
				}
				for n := 0; n <= maxN; n++ {
					if lf.At(n) != want[n] {
						t.Errorf("NewLnFact(%d).At(%d) = %v, recurrence %v", maxN, n, lf.At(n), want[n])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if allocs := testing.AllocsPerRun(16, func() {
		if NewK2(16384).lf.Max() != 16385 {
			t.Fatal("wrong table")
		}
	}); allocs > 2 {
		t.Errorf("NewK2 under a table already built: %.0f allocations, want the objective and its table header", allocs)
	}
}

func TestLnFactNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLnFact(-1)
}

func TestK2EmptyTableIsZero(t *testing.T) {
	var tab contingency.Table
	k2 := NewK2(2)
	if got := k2.Score(&tab); got != 0 {
		t.Errorf("K2(empty) = %g, want 0", got)
	}
}

func TestK2ClosedFormSingleCell(t *testing.T) {
	// One cell with r0=2, r1=1: K2 = lnFact(4) - lnFact(2) - lnFact(1)
	//                              = ln(24) - ln(2) = ln(12).
	var tab contingency.Table
	tab.Counts[0][0] = 2
	tab.Counts[1][0] = 1
	k2 := NewK2(10)
	want := math.Log(12)
	if got := k2.Score(&tab); math.Abs(got-want) > 1e-12 {
		t.Errorf("K2 = %g, want %g", got, want)
	}
}

func TestK2PrefersSeparatedTable(t *testing.T) {
	// A table that perfectly separates classes by combo should score
	// better (lower) than one that mixes them, at equal totals.
	var sep, mix contingency.Table
	sep.Counts[0][0] = 50 // all controls in combo 0
	sep.Counts[1][1] = 50 // all cases in combo 1
	mix.Counts[0][0] = 25
	mix.Counts[1][0] = 25
	mix.Counts[0][1] = 25
	mix.Counts[1][1] = 25
	k2 := NewK2(200)
	if !(k2.Score(&sep) < k2.Score(&mix)) {
		t.Errorf("K2 separated %g should beat mixed %g", k2.Score(&sep), k2.Score(&mix))
	}
}

func TestK2CellPermutationInvariance(t *testing.T) {
	// K2 sums over cells, so shuffling which combo holds which counts
	// must not change the score.
	r := rand.New(rand.NewSource(50))
	var tab contingency.Table
	for combo := 0; combo < contingency.Cells; combo++ {
		tab.Counts[0][combo] = int32(r.Intn(30))
		tab.Counts[1][combo] = int32(r.Intn(30))
	}
	perm := r.Perm(contingency.Cells)
	var shuf contingency.Table
	for combo, p := range perm {
		shuf.Counts[0][p] = tab.Counts[0][combo]
		shuf.Counts[1][p] = tab.Counts[1][combo]
	}
	k2 := NewK2(4000)
	if math.Abs(k2.Score(&tab)-k2.Score(&shuf)) > 1e-9 {
		t.Error("K2 not invariant under cell permutation")
	}
	if math.Abs((MIObjective{}).Score(&tab)-(MIObjective{}).Score(&shuf)) > 1e-9 {
		t.Error("MI not invariant under cell permutation")
	}
	if math.Abs((GiniObjective{}).Score(&tab)-(GiniObjective{}).Score(&shuf)) > 1e-9 {
		t.Error("Gini not invariant under cell permutation")
	}
}

func TestMutualInformationExtremes(t *testing.T) {
	// Perfect separation: MI = H(class) = ln 2 for balanced classes.
	var sep contingency.Table
	sep.Counts[0][0] = 40
	sep.Counts[1][1] = 40
	if got := (MIObjective{}).Score(&sep); math.Abs(got-math.Ln2) > 1e-9 {
		t.Errorf("MI(perfect) = %g, want ln2 = %g", got, math.Ln2)
	}
	// Independence: MI = 0.
	var ind contingency.Table
	for combo := 0; combo < 4; combo++ {
		ind.Counts[0][combo] = 10
		ind.Counts[1][combo] = 10
	}
	if got := (MIObjective{}).Score(&ind); got > 1e-9 {
		t.Errorf("MI(independent) = %g, want 0", got)
	}
	var empty contingency.Table
	if (MIObjective{}).Score(&empty) != 0 {
		t.Error("MI(empty) should be 0")
	}
}

func TestGiniExtremes(t *testing.T) {
	var sep contingency.Table
	sep.Counts[0][0] = 40
	sep.Counts[1][1] = 40
	if got := (GiniObjective{}).Score(&sep); got != 0 {
		t.Errorf("Gini(perfect) = %g, want 0", got)
	}
	var mix contingency.Table
	mix.Counts[0][0] = 20
	mix.Counts[1][0] = 20
	// Single cell 50/50: impurity 2*0.5*0.5 = 0.5
	if got := (GiniObjective{}).Score(&mix); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Gini(50/50) = %g, want 0.5", got)
	}
	var empty contingency.Table
	if (GiniObjective{}).Score(&empty) != 0 {
		t.Error("Gini(empty) should be 0")
	}
}

func TestObjectivesRegistry(t *testing.T) {
	for _, name := range []string{"k2", "mi", "gini"} {
		obj, err := New(name, 100)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if obj.Name() != name {
			t.Errorf("Name = %q, want %q", obj.Name(), name)
		}
		// No real score should beat Worst, and Better must be a strict order.
		var tab contingency.Table
		tab.Counts[0][0] = 10
		tab.Counts[1][3] = 10
		s := obj.Score(&tab)
		if !obj.Better(s, obj.Worst()) {
			t.Errorf("%s: real score %g should beat Worst %g", name, s, obj.Worst())
		}
		if obj.Better(s, s) {
			t.Errorf("%s: Better must be strict", name)
		}
	}
	if _, err := New("nope", 10); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestObjectivesAgreeOnSeparationOrdering(t *testing.T) {
	// All three objectives must prefer perfect separation over an
	// independent table.
	var sep, ind contingency.Table
	sep.Counts[0][0] = 30
	sep.Counts[1][13] = 30
	for combo := 0; combo < 6; combo++ {
		ind.Counts[0][combo] = 5
		ind.Counts[1][combo] = 5
	}
	for _, name := range []string{"k2", "mi", "gini"} {
		obj, err := New(name, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !obj.Better(obj.Score(&sep), obj.Score(&ind)) {
			t.Errorf("%s does not prefer separated table", name)
		}
	}
}

// Property: K2 is monotone under adding a balanced pair to a cell
// only in the sense of being well-defined and finite; check finiteness
// and symmetry between classes (swapping columns leaves K2 unchanged).
func TestK2ClassSymmetryProperty(t *testing.T) {
	k2 := NewK2(20000)
	f := func(cells [27]uint8, cells2 [27]uint8) bool {
		var tab, swp contingency.Table
		for i := 0; i < contingency.Cells; i++ {
			tab.Counts[0][i] = int32(cells[i])
			tab.Counts[1][i] = int32(cells2[i])
			swp.Counts[0][i] = int32(cells2[i])
			swp.Counts[1][i] = int32(cells[i])
		}
		a, b := k2.Score(&tab), k2.Score(&swp)
		return !math.IsNaN(a) && !math.IsInf(a, 0) && math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refScore is each objective's formula written out over paired cells,
// every sum taken row by row in row order, the joint entropy a class at a
// time: the order the table forms of K2, MI and Gini always kept, so
// ScoreCells must match it to the bit at every order.
func refScore(name string, lf *LnFact, ctrl, cases []int32) float64 {
	var n0, n1 float64
	for i := range ctrl {
		n0 += float64(ctrl[i])
		n1 += float64(cases[i])
	}
	n := n0 + n1
	ent := func(p float64) float64 {
		if p <= 0 {
			return 0
		}
		return -p * math.Log(p)
	}
	sum := 0.0
	switch {
	case name == "k2":
		for i := range ctrl {
			r0, r1 := int(ctrl[i]), int(cases[i])
			sum += lf.At(r0+r1+1) - lf.At(r0) - lf.At(r1)
		}
	case n == 0:
	case name == "mi":
		hCombo, hJoint := 0.0, 0.0
		for i := range ctrl {
			hCombo += ent((float64(ctrl[i]) + float64(cases[i])) / n)
			hJoint += ent(float64(ctrl[i]) / n)
			hJoint += ent(float64(cases[i]) / n)
		}
		if sum = ent(n0/n) + ent(n1/n) + hCombo - hJoint; sum < 0 {
			sum = 0
		}
	case name == "gini":
		for i := range ctrl {
			row := float64(ctrl[i]) + float64(cases[i])
			if row > 0 {
				p := float64(ctrl[i]) / row
				sum += row / n * 2 * p * (1 - p)
			}
		}
	}
	return sum
}

// TestCellScoringMatchesTableScoring: at every order 2–7, on random cells
// with some rows empty, each objective's ScoreCells equals refScore bit
// for bit.
func TestCellScoringMatchesTableScoring(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	k2 := NewK2(1 << 16)
	for order := 2; order <= contingency.MaxOrder; order++ {
		cells := contingency.CellsK(order)
		for trial := 0; trial < 200; trial++ {
			ctrl, cases := make([]int32, cells), make([]int32, cells)
			for i := range ctrl {
				if r.Intn(4) > 0 { // a quarter of the rows stay empty
					ctrl[i], cases[i] = int32(r.Intn(40)), int32(r.Intn(40))
				}
			}
			for _, obj := range []Objective{k2, MIObjective{}, GiniObjective{}} {
				got, want := obj.ScoreCells(ctrl, cases), refScore(obj.Name(), k2.lf, ctrl, cases)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("order %d trial %d: %s.ScoreCells = %v, row-order reference %v", order, trial, obj.Name(), got, want)
				}
			}
		}
	}
}

func TestObjectivesImplementCellScorer(t *testing.T) {
	for _, name := range []string{"k2", "mi", "gini"} {
		obj, err := New(name, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Cell scoring of a 27-cell slice is table scoring.
		var tab contingency.Table
		tab.Counts[0][3] = 12
		tab.Counts[1][9] = 15
		if got, want := obj.ScoreCells(tab.Counts[0][:], tab.Counts[1][:]), obj.Score(&tab); got != want {
			t.Errorf("%s: ScoreCells %g != Score %g", name, got, want)
		}
	}
}

func TestCellScoringMismatchPanics(t *testing.T) {
	for _, obj := range []Objective{NewK2(10), MIObjective{}, GiniObjective{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", obj.Name())
				}
			}()
			obj.ScoreCells(make([]int32, 3), make([]int32, 4))
		}()
	}
}

// TestScorePairIsBitIdenticalToScore: a pair table's score does not
// depend on which form it is handed in — its nine rows to ScoreCells (the
// lanes pass, permtest) or its 27-row embedding to Score (the reference
// builders, the oracle) — for every objective, because a screened search
// and an unscreened pair search rank by them interchangeably. Empty rows
// add exactly +0.0 to each sum.
func TestScorePairIsBitIdenticalToScore(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	k2 := NewK2(4000)
	for trial := 0; trial < 2000; trial++ {
		var tab contingency.Table
		for class := 0; class < 2; class++ {
			for cell := 0; cell < contingency.PairCells; cell++ {
				if r.Intn(4) > 0 { // a quarter of the pair rows stay empty
					tab.Counts[class][cell] = int32(r.Intn(200))
				}
			}
		}
		for _, obj := range []Objective{k2, MIObjective{}, GiniObjective{}} {
			want := obj.Score(&tab)
			if got := obj.ScoreCells(tab.Counts[0][:contingency.PairCells], tab.Counts[1][:contingency.PairCells]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: %s.ScoreCells over 9 rows = %v, Score = %v", trial, obj.Name(), got, want)
			}
		}
	}
}
