package score

import (
	"math/rand"
	"testing"

	"trigene/internal/contingency"
)

// laneScore is ScoreLanes' signature.
type laneScore func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int)

type laneScorer struct {
	name  string
	obj   Objective
	score laneScore
}

// laneScorers are the ways a lanes pass gets scored: an objective's own
// ScoreLanes (K2 only; its vector body where the host has it, else the Go
// one), K2's Go body called directly, and ScoreColumns, the fallback
// every other objective takes.
func laneScorers(n int) []laneScorer {
	k2 := NewK2(n)
	var scratch contingency.Table
	columns := func(obj Objective) laneScore {
		return func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int) {
			ScoreColumns(obj, dst, ctrl, cases, valid, &scratch)
		}
	}
	return []laneScorer{
		{"k2/" + contingency.Kernel(), k2, k2.ScoreLanes},
		{"k2/go", k2, func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int) {
			k2LanesGo(dst, ctrl, cases, k2.lf, valid)
		}},
		{"k2/columns", k2, columns(k2)},
		{"mi/columns", MIObjective{}, columns(MIObjective{})},
		{"gini/columns", GiniObjective{}, columns(GiniObjective{})},
	}
}

// randomLaneTables fills lane tables whose valid columns are partitions
// of n0 controls and n1 cases over the 27 cells — with the first columns
// extreme: everything in one cell (a count at N, 26 at 0), in cell 26,
// and one sample per class — and whose other columns are garbage no
// LnFact table covers.
func randomLaneTables(r *rand.Rand, n0, n1, valid int) (ctrl, cases contingency.LaneTable) {
	for lane := 0; lane < contingency.Lanes; lane++ {
		if lane >= valid {
			for cell := range ctrl {
				ctrl[cell][lane] = int32(r.Uint32())
				cases[cell][lane] = int32(r.Uint32())
			}
			continue
		}
		for class, n := range [2]int{n0, n1} {
			lt := &ctrl
			if class == 1 {
				lt = &cases
			}
			switch lane {
			case 0:
				lt[0][lane] = int32(n)
			case 1:
				lt[contingency.Cells-1][lane] = int32(n)
			case 2:
				lt[r.Intn(contingency.Cells)][lane] = 1
			default:
				for s := 0; s < n; s++ {
					lt[r.Intn(contingency.Cells)][lane]++
				}
			}
		}
	}
	return ctrl, cases
}

// TestScoreLanesIsBitIdenticalToScore: whichever way a lanes pass is
// scored, every valid lane gets exactly Score's float64 on the table of
// its column, for 1 to 8 valid lanes, with cells at 0 and at N, and with
// garbage in the invalid lanes — which must neither fault (they index far
// outside the LnFact table) nor change a valid lane's score.
func TestScoreLanesIsBitIdenticalToScore(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, n := range [][2]int{{1, 1}, {40, 25}, {250, 250}, {3000, 1}} {
		for _, sc := range laneScorers(n[0] + n[1]) {
			for valid := 1; valid <= contingency.Lanes; valid++ {
				for rep := 0; rep < 20; rep++ {
					ctrl, cases := randomLaneTables(r, n[0], n[1], valid)
					var dst [contingency.Lanes]float64
					sc.score(&dst, &ctrl, &cases, valid)
					// The same valid columns under other garbage.
					ctrl2, cases2 := ctrl, cases
					for lane := valid; lane < contingency.Lanes; lane++ {
						for cell := range ctrl2 {
							ctrl2[cell][lane], cases2[cell][lane] = -1, int32(r.Uint32())
						}
					}
					var dst2 [contingency.Lanes]float64
					sc.score(&dst2, &ctrl2, &cases2, valid)
					for lane := 0; lane < valid; lane++ {
						var tab contingency.Table
						for cell := range ctrl {
							tab.Counts[0][cell], tab.Counts[1][cell] = ctrl[cell][lane], cases[cell][lane]
						}
						if want := sc.obj.Score(&tab); dst[lane] != want || dst2[lane] != want {
							t.Fatalf("%s N=%v valid=%d lane %d: scored %v and %v, Score gives %v",
								sc.name, n, valid, lane, dst[lane], dst2[lane], want)
						}
					}
				}
			}
		}
	}
}

// TestScoreLanesRefusesCountsPastTheTable: a valid lane with a count no
// LnFact entry covers, or a negative one, must fail the way Score does
// (an index panic), not read outside the table.
func TestScoreLanesRefusesCountsPastTheTable(t *testing.T) {
	k2 := NewK2(10)
	for _, bad := range [][2]int32{{12, 0}, {6, 6}, {-1, 3}, {0, -2}} {
		var ctrl, cases contingency.LaneTable
		ctrl[5][3], cases[5][3] = bad[0], bad[1]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("counts %v in a valid lane were scored", bad)
				}
			}()
			var dst [contingency.Lanes]float64
			k2.ScoreLanes(&dst, &ctrl, &cases, 4)
		}()
		// The same counts in an invalid lane are nobody's business.
		var dst [contingency.Lanes]float64
		k2.ScoreLanes(&dst, &ctrl, &cases, 3)
	}
}

// TestScoreLanesDoesNotAllocate: the table pointers cross into assembly;
// without //go:noescape on the stub the caller's tables and score vector
// would move to the heap.
func TestScoreLanesDoesNotAllocate(t *testing.T) {
	k2 := NewK2(100)
	r := rand.New(rand.NewSource(78))
	if allocs := testing.AllocsPerRun(50, func() {
		ctrl, cases := randomLaneTables(r, 60, 40, 8)
		var dst [contingency.Lanes]float64
		k2.ScoreLanes(&dst, &ctrl, &cases, 8)
		if dst[0] == 0 {
			t.Fatal("no score")
		}
	}); allocs != 0 {
		t.Errorf("ScoreLanes allocates %.0f times per call", allocs)
	}
}

func BenchmarkK2Lanes(b *testing.B) {
	k2 := NewK2(500)
	ctrl, cases := randomLaneTables(rand.New(rand.NewSource(6)), 250, 250, 8)
	for lane := 0; lane < 3; lane++ { // the extreme columns are not typical
		for cell := range ctrl {
			ctrl[cell][lane], cases[cell][lane] = ctrl[cell][3+lane], cases[cell][3+lane]
		}
	}
	var dst [contingency.Lanes]float64
	b.Run(contingency.Kernel(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k2.ScoreLanes(&dst, &ctrl, &cases, 8)
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k2LanesGo(&dst, &ctrl, &cases, k2.lf, 8)
		}
	})
	b.Run("columns", func(b *testing.B) {
		var scratch contingency.Table
		for i := 0; i < b.N; i++ {
			ScoreColumns(k2, &dst, &ctrl, &cases, 8, &scratch)
		}
	})
}
