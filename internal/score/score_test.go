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
	lf := NewLnFact(2)
	if got := K2(&tab, lf); got != 0 {
		t.Errorf("K2(empty) = %g, want 0", got)
	}
}

func TestK2ClosedFormSingleCell(t *testing.T) {
	// One cell with r0=2, r1=1: K2 = lnFact(4) - lnFact(2) - lnFact(1)
	//                              = ln(24) - ln(2) = ln(12).
	var tab contingency.Table
	tab.Counts[0][0] = 2
	tab.Counts[1][0] = 1
	lf := NewLnFact(10)
	want := math.Log(12)
	if got := K2(&tab, lf); math.Abs(got-want) > 1e-12 {
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
	lf := NewLnFact(200)
	if !(K2(&sep, lf) < K2(&mix, lf)) {
		t.Errorf("K2 separated %g should beat mixed %g", K2(&sep, lf), K2(&mix, lf))
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
	lf := NewLnFact(4000)
	if math.Abs(K2(&tab, lf)-K2(&shuf, lf)) > 1e-9 {
		t.Error("K2 not invariant under cell permutation")
	}
	if math.Abs(MutualInformation(&tab)-MutualInformation(&shuf)) > 1e-9 {
		t.Error("MI not invariant under cell permutation")
	}
	if math.Abs(Gini(&tab)-Gini(&shuf)) > 1e-9 {
		t.Error("Gini not invariant under cell permutation")
	}
}

func TestMutualInformationExtremes(t *testing.T) {
	// Perfect separation: MI = H(class) = ln 2 for balanced classes.
	var sep contingency.Table
	sep.Counts[0][0] = 40
	sep.Counts[1][1] = 40
	if got := MutualInformation(&sep); math.Abs(got-math.Ln2) > 1e-9 {
		t.Errorf("MI(perfect) = %g, want ln2 = %g", got, math.Ln2)
	}
	// Independence: MI = 0.
	var ind contingency.Table
	for combo := 0; combo < 4; combo++ {
		ind.Counts[0][combo] = 10
		ind.Counts[1][combo] = 10
	}
	if got := MutualInformation(&ind); got > 1e-9 {
		t.Errorf("MI(independent) = %g, want 0", got)
	}
	var empty contingency.Table
	if MutualInformation(&empty) != 0 {
		t.Error("MI(empty) should be 0")
	}
}

func TestGiniExtremes(t *testing.T) {
	var sep contingency.Table
	sep.Counts[0][0] = 40
	sep.Counts[1][1] = 40
	if got := Gini(&sep); got != 0 {
		t.Errorf("Gini(perfect) = %g, want 0", got)
	}
	var mix contingency.Table
	mix.Counts[0][0] = 20
	mix.Counts[1][0] = 20
	// Single cell 50/50: impurity 2*0.5*0.5 = 0.5
	if got := Gini(&mix); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Gini(50/50) = %g, want 0.5", got)
	}
	var empty contingency.Table
	if Gini(&empty) != 0 {
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
	lf := NewLnFact(20000)
	f := func(cells [27]uint8, cells2 [27]uint8) bool {
		var tab, swp contingency.Table
		for i := 0; i < contingency.Cells; i++ {
			tab.Counts[0][i] = int32(cells[i])
			tab.Counts[1][i] = int32(cells2[i])
			swp.Counts[0][i] = int32(cells2[i])
			swp.Counts[1][i] = int32(cells[i])
		}
		a, b := K2(&tab, lf), K2(&swp, lf)
		return !math.IsNaN(a) && !math.IsInf(a, 0) && math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCellScoringMatchesTableScoring(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	var tab contingency.Table
	for i := 0; i < contingency.Cells; i++ {
		tab.Counts[0][i] = int32(r.Intn(40))
		tab.Counts[1][i] = int32(r.Intn(40))
	}
	lf := NewLnFact(5000)
	if math.Abs(K2(&tab, lf)-K2Cells(tab.Counts[0][:], tab.Counts[1][:], lf)) > 1e-12 {
		t.Error("K2Cells disagrees with K2")
	}
	if math.Abs(MutualInformation(&tab)-MICells(tab.Counts[0][:], tab.Counts[1][:])) > 1e-12 {
		t.Error("MICells disagrees with MutualInformation")
	}
	if math.Abs(Gini(&tab)-GiniCells(tab.Counts[0][:], tab.Counts[1][:])) > 1e-12 {
		t.Error("GiniCells disagrees with Gini")
	}
}

func TestObjectivesImplementCellScorer(t *testing.T) {
	for _, name := range []string{"k2", "mi", "gini"} {
		obj, err := New(name, 100)
		if err != nil {
			t.Fatal(err)
		}
		cs, ok := obj.(CellScorer)
		if !ok {
			t.Fatalf("%s does not implement CellScorer", name)
		}
		// Cell scoring of a 27-cell slice equals table scoring.
		var tab contingency.Table
		tab.Counts[0][3] = 12
		tab.Counts[1][9] = 15
		if got := cs.ScoreCells(tab.Counts[0][:], tab.Counts[1][:]); math.Abs(got-obj.Score(&tab)) > 1e-12 {
			t.Errorf("%s: ScoreCells %g != Score %g", name, got, obj.Score(&tab))
		}
	}
}

func TestCellScoringMismatchPanics(t *testing.T) {
	lf := NewLnFact(10)
	for _, f := range []func(){
		func() { K2Cells(make([]int32, 3), make([]int32, 4), lf) },
		func() { MICells(make([]int32, 3), make([]int32, 4)) },
		func() { GiniCells(make([]int32, 3), make([]int32, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestScorePairIsBitIdenticalToScore: on an embedded pair table the
// nine-row scorers must return Score's value to the last bit, for every
// objective, because a screened search and an unscreened pair search
// rank by them interchangeably. Empty rows add exactly +0.0, so that
// holds as long as each objective sums its nine rows in the order its
// 27-row form does. The generic cell-slice forms do not all qualify:
// MICells adds each row's two joint-entropy terms to each other before
// adding them to the sum, MutualInformation adds them one at a time, and
// on some tables the two roundings differ. The test pins that trap by
// finding such tables — if MICells ever becomes a drop-in, ScorePair can
// be deleted in favour of the cell-slice forms.
func TestScorePairIsBitIdenticalToScore(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	k2 := NewK2(4000)
	miCellsDiffers := 0
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
			if got := obj.(PairScorer).ScorePair(&tab); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: %s.ScorePair = %v, Score = %v", trial, obj.Name(), got, want)
			}
		}
		mi := MutualInformation(&tab)
		if MICells(tab.Counts[0][:contingency.PairCells], tab.Counts[1][:contingency.PairCells]) != mi {
			miCellsDiffers++
		}
	}
	if miCellsDiffers == 0 {
		t.Error("MICells matched MutualInformation bit for bit on every table: the summation-order trap this test pins is gone")
	}
}
