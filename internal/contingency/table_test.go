package contingency

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trigene/internal/dataset"
)

func randomMatrix(seed int64, m, n int) *dataset.Matrix {
	r := rand.New(rand.NewSource(seed))
	mx := dataset.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := mx.Row(i)
		for j := range row {
			row[j] = uint8(r.Intn(3))
		}
	}
	for j := 0; j < n; j++ {
		mx.SetPhen(j, uint8(r.Intn(2)))
	}
	return mx
}

func TestComboIndex(t *testing.T) {
	if ComboIndex(0, 0, 0) != 0 || ComboIndex(2, 2, 2) != 26 || ComboIndex(0, 1, 2) != 5 {
		t.Error("combo indexing wrong")
	}
	seen := map[int]bool{}
	for gx := 0; gx < 3; gx++ {
		for gy := 0; gy < 3; gy++ {
			for gz := 0; gz < 3; gz++ {
				idx := ComboIndex(gx, gy, gz)
				if idx < 0 || idx >= Cells || seen[idx] {
					t.Fatalf("combo index (%d,%d,%d)=%d invalid or duplicate", gx, gy, gz, idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestBuildersAgreeWithReference(t *testing.T) {
	mx := randomMatrix(40, 8, 173) // odd N exercises pad correction
	s := dataset.SplitBinarize(mx)
	controls, cases := mx.ClassCounts()

	triples := [][3]int{{0, 1, 2}, {1, 3, 7}, {0, 4, 5}, {5, 6, 7}, {2, 3, 4}}
	for _, tr := range triples {
		want := BuildReference(mx, tr[0], tr[1], tr[2])
		if err := want.Validate(controls, cases); err != nil {
			t.Fatalf("reference table invalid: %v", err)
		}
		split := BuildSplit(s, tr[0], tr[1], tr[2])
		if !split.Equal(&want) {
			t.Errorf("triple %v: BuildSplit differs from reference\ngot:\n%swant:\n%s", tr, split.String(), want.String())
		}
	}
}

func TestCellAccessor(t *testing.T) {
	mx := randomMatrix(41, 3, 50)
	want := BuildReference(mx, 0, 1, 2)
	for gx := 0; gx < 3; gx++ {
		for gy := 0; gy < 3; gy++ {
			for gz := 0; gz < 3; gz++ {
				if want.Cell(dataset.Case, gx, gy, gz) != want.Counts[dataset.Case][ComboIndex(gx, gy, gz)] {
					t.Fatal("Cell accessor mismatch")
				}
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mx := randomMatrix(42, 3, 60)
	tab := BuildReference(mx, 0, 1, 2)
	controls, cases := mx.ClassCounts()
	if err := tab.Validate(controls, cases); err != nil {
		t.Fatal(err)
	}
	tab.Counts[0][5]++
	if err := tab.Validate(controls, cases); err == nil {
		t.Error("inflated table passed validation")
	}
	tab.Counts[0][5] -= 2
	tab.Counts[0][6]++ // totals ok again, but make one negative
	tab.Counts[0][5] = -1
	tab.Counts[0][6] += 1
	if err := tab.Validate(controls, cases); err == nil {
		t.Error("negative cell passed validation")
	}
}

// Property: the split builder and the reference produce identical
// tables for arbitrary datasets and triples.
func TestBuilderEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%700) + 2
		mx := randomMatrix(seed, 6, n)
		s := dataset.SplitBinarize(mx)
		want := BuildReference(mx, 1, 3, 5)
		split := BuildSplit(s, 1, 3, 5)
		return split.Equal(&want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestClassTotalAndString(t *testing.T) {
	mx := randomMatrix(45, 3, 30)
	tab := BuildReference(mx, 0, 1, 2)
	controls, cases := mx.ClassCounts()
	if tab.ClassTotal(dataset.Control) != controls || tab.ClassTotal(dataset.Case) != cases {
		t.Error("class totals wrong")
	}
	if s := tab.String(); len(s) == 0 {
		t.Error("String returned empty")
	}
}
