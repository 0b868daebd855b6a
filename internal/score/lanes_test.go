package score

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"trigene/internal/contingency"
)

// laneScore is one group's lane scoring at a fixed row count: it reports
// whether the group was rejected.
type laneScore func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, bound float64) (rejected bool)

// k2Body is one of the ways K2 scores a group of lane tables.
type k2Body struct {
	name  string
	score laneScore
}

// tableRows are the row counts lane tables are scored at: triples' 27 and
// embedded pair tables' 9.
var tableRows = []int{contingency.Cells, contingency.PairCells}

// k2Bodies are K2's entries over one group, on its vector body where the
// host has it, else its Go one — ScoreLanesStop, and ScoreGroups over a
// run of that one group — and its Go body called directly, over the first
// rows.
func k2Bodies(k2 *K2Objective, rows int) []k2Body {
	return []k2Body{
		{contingency.Kernel() + "/stop", func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, bound float64) bool {
			return k2.ScoreLanesStop(dst, ctrl, cases, rows, valid, bound) > 0
		}},
		{contingency.Kernel() + "/run", func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, bound float64) bool {
			run := [2][1]contingency.LaneTable{{*ctrl}, {*cases}}
			v := [1]uint8{uint8(valid)}
			return k2.ScoreGroups(dst, run[0][:], run[1][:], v[:], rows, bound) == 1
		}},
		{"go", func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, bound float64) bool {
			return k2GroupGo(dst, ctrl, cases, valid, k2.lf, rows, bound) > 0
		}},
	}
}

type laneScorer struct {
	name  string
	obj   Objective
	rows  int
	score func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int) // at bound +Inf
	// bounded is the body with its bound; nil for ScoreColumns, which
	// has none.
	bounded laneScore
}

// laneScorers are the ways a lanes pass gets scored, at both row counts:
// K2's two bodies, and ScoreColumns, the fallback every other objective
// takes.
func laneScorers(n int) []laneScorer {
	k2 := NewK2(n)
	var scorers []laneScorer
	for _, rows := range tableRows {
		for _, body := range k2Bodies(k2, rows) {
			scorers = append(scorers, laneScorer{fmt.Sprintf("k2/%s/%d rows", body.name, rows), k2, rows, func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int) {
				body.score(dst, ctrl, cases, valid, math.Inf(1))
			}, body.score})
		}
		for _, obj := range []Objective{k2, MIObjective{}, GiniObjective{}} {
			var ctrlCol, casesCol [contingency.Cells]int32
			scorers = append(scorers, laneScorer{fmt.Sprintf("%s/columns/%d rows", obj.Name(), rows), obj, rows, func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int) {
				ScoreColumns(obj, dst, ctrl, cases, rows, valid, ctrlCol[:], casesCol[:])
			}, nil})
		}
	}
	return scorers
}

// randomLaneTables fills lane tables whose valid columns are partitions
// of n0 controls and n1 cases over their first rows cells — with the first
// columns extreme: everything in one cell (a count at N, the rest at 0),
// in the last cell, and one sample per class — and whose other columns,
// and the rows past rows of every column, are garbage no LnFact table
// covers.
func randomLaneTables(r *rand.Rand, n0, n1, rows, valid int) (ctrl, cases contingency.LaneTable) {
	for lane := 0; lane < contingency.Lanes; lane++ {
		for cell := range ctrl {
			if lane >= valid || cell >= rows {
				ctrl[cell][lane] = int32(r.Uint32())
				cases[cell][lane] = int32(r.Uint32())
			}
		}
		if lane >= valid {
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
				lt[rows-1][lane] = int32(n)
			case 2:
				lt[r.Intn(rows)][lane] = 1
			default:
				for s := 0; s < n; s++ {
					lt[r.Intn(rows)][lane]++
				}
			}
		}
	}
	return ctrl, cases
}

// laneScores is, for each of the first valid columns, ScoreCells on the
// table of its first rows.
func laneScores(obj Objective, ctrl, cases *contingency.LaneTable, rows, valid int) []float64 {
	scores := make([]float64, valid)
	for lane := range scores {
		var tab contingency.Table
		for cell := 0; cell < rows; cell++ {
			tab.Counts[0][cell], tab.Counts[1][cell] = ctrl[cell][lane], cases[cell][lane]
		}
		scores[lane] = obj.ScoreCells(tab.Counts[0][:rows], tab.Counts[1][:rows])
	}
	return scores
}

// TestScoreLanesIsBitIdenticalToScore: whichever way a lanes pass is
// scored, every valid lane gets exactly ScoreCells' float64 on the first
// rows of its column — nine for a pair table, 27 for a triple — for 1 to 8
// valid lanes, with cells at 0 and at N, and with garbage in the invalid
// lanes and in the rows past a pair table's nine, which must neither fault
// (they index far outside the LnFact table) nor change a valid lane's
// score.
func TestScoreLanesIsBitIdenticalToScore(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, n := range [][2]int{{1, 1}, {40, 25}, {250, 250}, {3000, 1}} {
		for _, sc := range laneScorers(n[0] + n[1]) {
			for valid := 1; valid <= contingency.Lanes; valid++ {
				for rep := 0; rep < 20; rep++ {
					ctrl, cases := randomLaneTables(r, n[0], n[1], sc.rows, valid)
					var dst [contingency.Lanes]float64
					sc.score(&dst, &ctrl, &cases, valid)
					// The same valid columns under other garbage.
					ctrl2, cases2 := ctrl, cases
					for lane := range contingency.Lanes {
						for cell := range ctrl2 {
							if lane >= valid || cell >= sc.rows {
								ctrl2[cell][lane], cases2[cell][lane] = -1, int32(r.Uint32())
							}
						}
					}
					var dst2 [contingency.Lanes]float64
					sc.score(&dst2, &ctrl2, &cases2, valid)
					for lane, want := range laneScores(sc.obj, &ctrl, &cases, sc.rows, valid) {
						if math.Float64bits(dst[lane]) != math.Float64bits(want) || math.Float64bits(dst2[lane]) != math.Float64bits(want) {
							t.Fatalf("%s N=%v valid=%d lane %d: scored %v and %v, Score gives %v",
								sc.name, n, valid, lane, dst[lane], dst2[lane], want)
						}
					}
				}
			}
		}
	}
}

// boundsAround are the bounds a group with these scores is held to: +Inf,
// −1 (below every partial sum: the group stops after its first row), one
// ulp below the lowest score, every score itself and one ulp either side
// of it, and halfway between neighbouring scores.
func boundsAround(scores []float64) []float64 {
	inf := math.Inf(1)
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	bounds := []float64{inf, -1, math.Nextafter(sorted[0], -inf)}
	for i, s := range sorted {
		bounds = append(bounds, s, math.Nextafter(s, -inf), math.Nextafter(s, inf))
		if i > 0 {
			bounds = append(bounds, sorted[i-1]+(s-sorted[i-1])/2)
		}
	}
	return bounds
}

// TestScoreLanesBound holds K2's lane scoring to LaneScorer's contract at
// bounds around the group's own scores, on triples' 27 rows and pair
// tables' 9: a valid lane gets exactly Score, or — only where Score is
// above the bound — a value above the bound; the group is rejected exactly
// when every valid lane's Score is above the bound, so never when one of
// them equals it (the contract asks only "if rejected, then"; both bodies
// stop at the first row where every lane's sum is past the bound, which at
// the latest is the last); +Inf never rejects and gives Score's bits.
// ScoreColumns has no bound: it is held to Score's bits under all three
// objectives, with the same tables.
func TestScoreLanesBound(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	inf := math.Inf(1)
	for _, n := range [][2]int{{1, 1}, {40, 25}, {250, 250}, {3000, 1}} {
		for _, sc := range laneScorers(n[0] + n[1]) {
			for valid := 1; valid <= contingency.Lanes; valid++ {
				for rep := 0; rep < 10; rep++ {
					ctrl, cases := randomLaneTables(r, n[0], n[1], sc.rows, valid)
					want := laneScores(sc.obj, &ctrl, &cases, sc.rows, valid)
					if sc.bounded == nil {
						var dst [contingency.Lanes]float64
						sc.score(&dst, &ctrl, &cases, valid)
						for lane, w := range want {
							if math.Float64bits(dst[lane]) != math.Float64bits(w) {
								t.Fatalf("%s N=%v valid=%d lane %d: scored %v, Score gives %v", sc.name, n, valid, lane, dst[lane], w)
							}
						}
						continue
					}
					for _, bound := range boundsAround(want) {
						var dst [contingency.Lanes]float64
						rejected := sc.bounded(&dst, &ctrl, &cases, valid, bound)
						above := true
						for lane, w := range want {
							above = above && w > bound
							exact := math.Float64bits(dst[lane]) == math.Float64bits(w)
							if !exact && !(w > bound && dst[lane] > bound) {
								t.Fatalf("%s N=%v valid=%d bound %v lane %d: scored %v, Score gives %v",
									sc.name, n, valid, bound, lane, dst[lane], w)
							}
							if bound == inf && !exact {
								t.Fatalf("%s N=%v valid=%d lane %d: scored %v at bound +Inf, Score gives %v",
									sc.name, n, valid, lane, dst[lane], w)
							}
						}
						if rejected != above {
							t.Fatalf("%s N=%v valid=%d bound %v: rejected = %v with scores %v",
								sc.name, n, valid, bound, rejected, want)
						}
					}
				}
			}
		}
	}
}

// TestScoreLanesStopRow: both bodies of ScoreLanesStop report the row a
// group of tables is given up on — the first after which every valid
// lane's row-order partial sum is above the bound, replayed here with
// K2Term — and 0 when some lane's full sum is not above it, at bounds
// around the group's own partial sums, for 1 to 8 valid lanes, on 27 rows
// and on a pair table's 9.
func TestScoreLanesStopRow(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	k2 := NewK2(500)
	for _, rows := range tableRows {
		bodies := []struct {
			name string
			stop func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, bound float64) int
		}{
			{contingency.Kernel(), func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, bound float64) int {
				return k2.ScoreLanesStop(dst, ctrl, cases, rows, valid, bound)
			}},
			{"go", func(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, bound float64) int {
				return k2GroupGo(dst, ctrl, cases, valid, k2.lf, rows, bound)
			}},
		}
		for valid := 1; valid <= contingency.Lanes; valid++ {
			for rep := 0; rep < 20; rep++ {
				ctrl, cases := randomLaneTables(r, 250, 250, rows, valid)
				// lowest[row] is the lowest valid partial sum after row+1 rows.
				lowest := make([]float64, rows)
				sums := make([]float64, valid)
				var bounds []float64
				for row := range lowest {
					lowest[row] = math.Inf(1)
					for lane := range sums {
						sums[lane] += K2Term(k2.lf, int(ctrl[row][lane]), int(cases[row][lane]))
						lowest[row] = min(lowest[row], sums[lane])
						bounds = append(bounds, sums[lane], math.Nextafter(sums[lane], math.Inf(-1)))
					}
				}
				bounds = append(bounds, -1, math.Inf(1))
				for _, bound := range bounds {
					want := 0
					for row, low := range lowest {
						if low > bound {
							want = row + 1
							break
						}
					}
					for _, body := range bodies {
						var dst [contingency.Lanes]float64
						if got := body.stop(&dst, &ctrl, &cases, valid, bound); got != want {
							t.Fatalf("%s %d rows valid=%d bound %v: stop %d, want %d", body.name, rows, valid, bound, got, want)
						}
					}
				}
			}
		}
	}
}

// TestK2TermsNeverNegative is what early rejection in lane scoring rests on:
// the LnFact table never decreases up to the largest table a search over
// 16384 samples builds, and every row term (lnFact(r0+r1+1) − lnFact(r0))
// − lnFact(r1) is ≥ +0 in float64 — exactly +0 for an empty row — so
// adding a row never lowers a partial K2 sum. Every (r0, r1) with
// r0 + r1 ≤ 4096 is checked, and a million random pairs up to 16384.
func TestK2TermsNeverNegative(t *testing.T) {
	const n = 16385
	lf := NewLnFact(n)
	for i := 1; i <= n; i++ {
		if lf.At(i) < lf.At(i-1) {
			t.Fatalf("lnFact(%d) = %v < lnFact(%d) = %v", i, lf.At(i), i-1, lf.At(i-1))
		}
	}
	term := func(r0, r1 int) {
		if v := K2Term(lf, r0, r1); v < 0 || math.Signbit(v) {
			t.Fatalf("row term of (%d, %d) is %v", r0, r1, v)
		}
	}
	for r0 := 0; r0 <= 4096; r0++ {
		for r1 := 0; r0+r1 <= 4096; r1++ {
			term(r0, r1)
		}
	}
	r := rand.New(rand.NewSource(80))
	for i := 0; i < 1_000_000; i++ {
		r0 := r.Intn(n)
		term(r0, r.Intn(n-r0))
	}
}

// TestScoreLanesRefusesCountsPastTheTable: a valid lane with a count no
// LnFact entry covers, or a negative one, in a row that scoring reads must
// fail the way Score does (an index panic), not read outside the table —
// in row 0, row 5 and the last row of 27, and of a pair table's 9. With no
// bound every row is read. With a bound (−1) so low that the group stops
// after its first row, only row 0 is: since lane scoring stops reading at
// the row it gives a group up after, a bad count past it passes unread,
// and the counts' bound is kept where they are made (the lanes pass,
// PairLanes and the permutation test's counter each keep every count of a
// valid lane inside its class or cell). Past a pair table's nine rows the
// same count is not the table's and must be ignored, and so must the
// count in an invalid lane. NewK2(10)'s table ends at 11, short of the
// term table's 127, and {6, 6} is a row the term table holds: the vector
// body must not look it up there, and must fail on its r0 + r1 + 1 = 13.
func TestScoreLanesRefusesCountsPastTheTable(t *testing.T) {
	k2 := NewK2(10)
	for _, rows := range tableRows {
		for _, body := range k2Bodies(k2, rows) {
			for _, bad := range [][2]int32{{12, 0}, {6, 6}, {-1, 3}, {0, -2}} {
				for _, row := range []int{0, 5, rows - 1, contingency.Cells - 1} {
					for _, bound := range []float64{math.Inf(1), -1} {
						read := row < rows && (row == 0 || bound > 0)
						var ctrl, cases contingency.LaneTable
						ctrl[row][3], cases[row][3] = bad[0], bad[1]
						func() {
							defer func() {
								if failed := recover() != nil; failed != read {
									t.Errorf("%s, %d rows: counts %v in row %d of a valid lane at bound %v: failed = %v",
										body.name, rows, bad, row, bound, failed)
								}
							}()
							var dst [contingency.Lanes]float64
							body.score(&dst, &ctrl, &cases, 4, bound)
						}()
						// The same counts in an invalid lane are nobody's business.
						var dst [contingency.Lanes]float64
						body.score(&dst, &ctrl, &cases, 3, bound)
					}
				}
			}
		}
	}
}

// TestScoreLanesScoresWhatTheCheckDeclines: a table over more samples
// than the objective was sized for, whose counts each lie in the LnFact
// table but whose largest control and largest case count sit in different
// rows and do not sum inside it, has every index in the table. The vector
// body checks each row's own counts, so it must score such a table itself
// (it does not decline it, as a check of the lanes' largest counts would)
// and every body must give Score's bits, with a bound and without, on 27
// rows and on 9.
func TestScoreLanesScoresWhatTheCheckDeclines(t *testing.T) {
	k2 := NewK2(10) // ln(n!) up to n = 11
	var ctrl, cases contingency.LaneTable
	for lane := 0; lane < contingency.Lanes; lane++ {
		ctrl[0][lane], cases[1][lane], cases[2][lane] = 10, 10, int32(lane)
	}
	for _, rows := range tableRows {
		want := laneScores(k2, &ctrl, &cases, rows, contingency.Lanes)
		for _, bound := range []float64{math.Inf(1), want[3]} {
			for _, body := range k2Bodies(k2, rows) {
				var dst [contingency.Lanes]float64
				body.score(&dst, &ctrl, &cases, contingency.Lanes, bound)
				for lane, w := range want {
					if dst[lane] != w && !(w > bound && dst[lane] > bound) {
						t.Errorf("%s, %d rows, bound %v lane %d: scored %v, Score gives %v", body.name, rows, bound, lane, dst[lane], w)
					}
				}
			}
			if contingency.HasAVX512() {
				var dst [contingency.Lanes]float64
				v := uint8(contingency.Lanes)
				if _, _, ok := k2LanesAVX512(&dst, &ctrl, &cases, &v, 1, &k2.lf.table[0], &k2.terms[0], k2.lf.Max(), rows, bound); !ok {
					t.Errorf("%d rows, bound %v: the vector body declined counts that all lie in the table", rows, bound)
				}
			}
		}
	}
}

// TestScoreLanesDoesNotAllocate: the table pointers cross into assembly;
// without //go:noescape on the stub the caller's tables, valid counts and
// score vector would move to the heap — through ScoreLanesStop and through
// ScoreGroups over a run on the stack.
func TestScoreLanesDoesNotAllocate(t *testing.T) {
	k2 := NewK2(100)
	r := rand.New(rand.NewSource(78))
	if allocs := testing.AllocsPerRun(50, func() {
		ctrl, cases := randomLaneTables(r, 60, 40, contingency.Cells, 8)
		var dst [contingency.Lanes]float64
		k2.ScoreLanesStop(&dst, &ctrl, &cases, contingency.Cells, 8, math.Inf(1))
		if dst[0] == 0 {
			t.Fatal("no score")
		}
		run := [2][2]contingency.LaneTable{{ctrl, ctrl}, {cases, cases}}
		valid := [2]uint8{8, 8}
		if k2.ScoreGroups(&dst, run[0][:], run[1][:], valid[:], contingency.Cells, -1) != 2 {
			t.Fatal("a group was not rejected below every score")
		}
	}); allocs != 0 {
		t.Errorf("lane scoring allocates %.0f times per call", allocs)
	}
}

// TestTermTableIsK2Term: every entry of the term table the vector body
// looks small counts up in is K2Term of its (r0, r1) to the bit, whatever
// size of LnFact the objective holds, and every K2 objective holds the
// one table of the process.
func TestTermTableIsK2Term(t *testing.T) {
	terms := k2Terms()
	for _, n := range []int{2 * termSide, 500, 16384} {
		k2 := NewK2(n)
		if k2.terms != terms {
			t.Fatalf("NewK2(%d) holds its own term table", n)
		}
		for r0 := 0; r0 < termSide; r0++ {
			for r1 := 0; r1 < termSide; r1++ {
				if got, want := terms[r0*termSide+r1], K2Term(k2.lf, r0, r1); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("term table (%d, %d) = %v, K2Term over %d samples gives %v", r0, r1, got, n, want)
				}
			}
		}
	}
}

// edgeLaneTables fills lane tables of n samples per class whose valid
// lanes have their largest count of one class, placed in row top, at
// peak, the rest spread at random over the first rows; the invalid lanes
// hold counts of termSide and more.
func edgeLaneTables(r *rand.Rand, n, peak, class, top, rows, valid int) (ctrl, cases contingency.LaneTable) {
	for lane := 0; lane < contingency.Lanes; lane++ {
		if lane >= valid {
			for cell := range ctrl {
				ctrl[cell][lane], cases[cell][lane] = int32(termSide+r.Intn(200)), int32(termSide+r.Intn(1<<20))
			}
			continue
		}
		for c, lt := range []*contingency.LaneTable{&ctrl, &cases} {
			left := n
			if c == class {
				lt[top][lane] = int32(peak)
				left -= peak
			}
			for left > 0 { // below peak wherever it lands
				cell := r.Intn(rows)
				if c == class && cell == top || lt[cell][lane] >= int32(min(peak, termSide))-1 {
					continue
				}
				lt[cell][lane]++
				left--
			}
		}
	}
	return ctrl, cases
}

// TestScoreLanesAtTheTermTableEdge: each row is scored by its own counts
// — from the term table when every valid lane's counts in it lie below
// termSide, else from the LnFact table — so a group whose peak count sits
// in one row takes the LnFact table there and the term table in its other
// rows. Groups whose largest count, of the controls or of the cases, is
// 62, 63, 64 or 65 — in the first row, a middle one or the last — with
// larger counts in their invalid lanes, take the two paths side by side;
// the vector body must give k2GroupGo's stop row and bits, and Score's
// bits (or, above the bound, a value above it), at bounds around the
// group's own scores, on 27 rows and on a pair table's 9.
func TestScoreLanesAtTheTermTableEdge(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	const n = 300
	k2 := NewK2(2 * n)
	for _, rows := range tableRows {
		for _, peak := range []int{termSide - 2, termSide - 1, termSide, termSide + 1} {
			for class := range 2 {
				for _, top := range []int{0, rows / 2, rows - 1} {
					for valid := 1; valid <= contingency.Lanes; valid++ {
						ctrl, cases := edgeLaneTables(r, n, peak, class, top, rows, valid)
						want := laneScores(k2, &ctrl, &cases, rows, valid)
						for _, bound := range boundsAround(want) {
							var dst, oracle [contingency.Lanes]float64
							stop := k2.ScoreLanesStop(&dst, &ctrl, &cases, rows, valid, bound)
							if wantStop := k2GroupGo(&oracle, &ctrl, &cases, valid, k2.lf, rows, bound); stop != wantStop {
								t.Fatalf("%d rows, peak %d of class %d in row %d, valid=%d, bound %v: stop %d, k2GroupGo %d",
									rows, peak, class, top, valid, bound, stop, wantStop)
							}
							for lane, w := range want {
								if math.Float64bits(dst[lane]) != math.Float64bits(oracle[lane]) ||
									math.Float64bits(dst[lane]) != math.Float64bits(w) && !(w > bound && dst[lane] > bound) {
									t.Fatalf("%d rows, peak %d of class %d in row %d, valid=%d, bound %v lane %d: scored %v, k2GroupGo %v, Score gives %v",
										rows, peak, class, top, valid, bound, lane, dst[lane], oracle[lane], w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzK2Lanes: on any lane tables (counts of 16 bits, negative ones
// too), valid lane count, row count (a pair table's 9 or a triple's 27),
// LnFact size and bound, K2's ScoreLanesStop — the vector body where the
// host has it, which scores each row from the term table or from the
// LnFact table by that row's counts — and k2GroupGo agree: both fail on a
// count outside the LnFact table in a row they read or neither does, they
// give the same stop row, and each valid lane's sum has the same bits.
// The vector body called alone vouches (ok) exactly when the Go body does
// not fail, and then gives the same stop.
func FuzzK2Lanes(f *testing.F) {
	seed := func(fill func(cell, lane int) (int16, int16)) []byte {
		b := make([]byte, 0, 4*contingency.Cells*contingency.Lanes)
		for cell := 0; cell < contingency.Cells; cell++ {
			for lane := 0; lane < contingency.Lanes; lane++ {
				r0, r1 := fill(cell, lane)
				b = append(b, byte(r0), byte(uint16(r0)>>8), byte(r1), byte(uint16(r1)>>8))
			}
		}
		return b
	}
	for _, c := range []int16{62, 63, 64, 65} {
		for _, valid := range []int{3, 8} {
			// Every valid count at c; the masked-off lanes at 64 and past.
			counts := seed(func(cell, lane int) (int16, int16) {
				if lane >= valid {
					return 64 + int16(cell), 1000
				}
				return c, int16(cell % 3)
			})
			f.Add(counts, uint8(valid), false, uint16(4000), math.Inf(1))
			f.Add(counts, uint8(valid), true, uint16(4000), 200.0)
			// c in one row of one valid lane, small counts elsewhere.
			counts = seed(func(cell, lane int) (int16, int16) {
				switch {
				case lane >= valid:
					return -1, 64
				case cell == 5 && lane == 1:
					return 3, c
				}
				return int16(lane + cell%4), int16(cell % 5)
			})
			f.Add(counts, uint8(valid), true, uint16(600), 60.0)
			f.Add(counts, uint8(valid), false, uint16(60), math.Inf(1))
		}
	}
	f.Fuzz(func(t *testing.T, counts []byte, v uint8, pair bool, samples uint16, bound float64) {
		var ctrl, cases contingency.LaneTable
		for i := 0; i+3 < len(counts) && i/4 < contingency.Cells*contingency.Lanes; i += 4 {
			cell, lane := i/4/contingency.Lanes, i/4%contingency.Lanes
			ctrl[cell][lane] = int32(int16(uint16(counts[i]) | uint16(counts[i+1])<<8))
			cases[cell][lane] = int32(int16(uint16(counts[i+2]) | uint16(counts[i+3])<<8))
		}
		valid, rows := int(v%(contingency.Lanes+1)), contingency.Cells
		if pair {
			rows = contingency.PairCells
		}
		k2 := NewK2(int(samples))
		score := func(body func(dst *[contingency.Lanes]float64) int) (dst [contingency.Lanes]float64, stop int, failed bool) {
			defer func() { failed = recover() != nil }()
			stop = body(&dst)
			return
		}
		got, stop, failed := score(func(dst *[contingency.Lanes]float64) int {
			return k2.ScoreLanesStop(dst, &ctrl, &cases, rows, valid, bound)
		})
		want, wantStop, wantFailed := score(func(dst *[contingency.Lanes]float64) int {
			return k2GroupGo(dst, &ctrl, &cases, valid, k2.lf, rows, bound)
		})
		if failed != wantFailed {
			t.Fatalf("ScoreLanesStop failed = %v, k2GroupGo failed = %v", failed, wantFailed)
		}
		if !failed {
			if stop != wantStop {
				t.Fatalf("stop %d, k2GroupGo %d", stop, wantStop)
			}
			for lane := 0; lane < valid; lane++ {
				if math.Float64bits(got[lane]) != math.Float64bits(want[lane]) {
					t.Fatalf("lane %d at bound %v: scored %v, k2GroupGo %v", lane, bound, got[lane], want[lane])
				}
			}
		}
		if !contingency.HasAVX512() {
			return
		}
		var dst [contingency.Lanes]float64
		v = uint8(valid)
		_, vstop, ok := k2LanesAVX512(&dst, &ctrl, &cases, &v, 1, &k2.lf.table[0], &k2.terms[0], k2.lf.Max(), rows, bound)
		if ok != !wantFailed || ok && vstop != wantStop {
			t.Fatalf("vector body: stop %d ok = %v, want ok = %v and stop %d", vstop, ok, !wantFailed, wantStop)
		}
	})
}

// FuzzK2Groups holds ScoreGroups' run form to a group at a time: on runs
// of 1 to 64 groups, each with its own valid count (0 to 8), whose valid
// lanes are partitions of one dataset's classes over the first rows and
// whose other lanes and rows are garbage, at a bound drawn among the
// groups' own lowest scores (or one ulp either side), ScoreGroups — the
// vector body where the host has it — and k2LanesGo must return the first
// group that k2GroupGo, called group by group, does not reject, with its
// bits (or, when every group is rejected, the last group's partial sums).
// A count outside the LnFact table planted in a valid lane must fail all
// three exactly when a group that is scored reads its row, and the vector
// body alone must vouch (ok) exactly when the oracle does not fail. Below
// 126 samples the LnFact table ends short of the term table's 127, so the
// vector body may look no row up there but an empty one.
func FuzzK2Groups(f *testing.F) {
	for i, n := range []uint8{1, 2, 7, 63} {
		for j, samples := range []uint16{40, 500, 3000} {
			pair := (i+j)%2 == 1
			f.Add(int64(10*i+j), n, pair, samples, uint8(255), uint16(0))   // every group rejected
			f.Add(int64(10*i+j), n, pair, samples, uint8(128), uint16(4))   // bound among the scores
			f.Add(int64(10*i+j), n, !pair, samples, uint8(3), uint16(1029)) // a negative count
			f.Add(int64(10*i+j), n, pair, samples, uint8(255), uint16(3))   // r0 + r1 + 1 past the table in row 0
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, groups uint8, pair bool, samples uint16, q uint8, bad uint16) {
		r := rand.New(rand.NewSource(seed))
		n, rows := 1+int(groups%64), contingency.Cells
		if pair {
			rows = contingency.PairCells
		}
		size := 2 + int(samples%4000)
		n0 := 1 + r.Intn(size-1)
		ctrl, cases := make([]contingency.LaneTable, n), make([]contingency.LaneTable, n)
		valid := make([]uint8, n)
		lowest := make([]float64, 0, n)
		k2 := NewK2(size)
		for g := range valid {
			valid[g] = uint8(r.Intn(contingency.Lanes + 1))
			ctrl[g], cases[g] = randomLaneTables(r, n0, size-n0, rows, int(valid[g]))
			var dst [contingency.Lanes]float64
			k2GroupGo(&dst, &ctrl[g], &cases[g], int(valid[g]), k2.lf, rows, math.Inf(1))
			if valid[g] > 0 {
				lowest = append(lowest, slices.Min(dst[:valid[g]]))
			}
		}
		bound := -1.0
		if len(lowest) > 0 {
			sort.Float64s(lowest)
			bound = lowest[int(q)*len(lowest)/256]
			switch q % 3 {
			case 1:
				bound = math.Nextafter(bound, math.Inf(-1))
			case 2:
				bound = math.Nextafter(bound, math.Inf(1))
			}
			if q == 255 {
				bound = math.Nextafter(lowest[0], math.Inf(-1))
			}
		}
		if bad%4 != 0 {
			g := int(bad>>2) % n
			row, lane := int(bad>>8)%rows, int(bad>>2)%contingency.Lanes
			if valid[g] > 0 {
				lane %= int(valid[g])
			}
			switch bad % 4 {
			case 1:
				ctrl[g][row][lane] = -1
			case 2:
				cases[g][row][lane] = int32(size) + 2
			case 3:
				ctrl[g][row][lane], cases[g][row][lane] = int32(size), 1
			}
		}
		type result struct {
			next   int
			dst    [contingency.Lanes]float64
			failed bool
		}
		run := func(body func(dst *[contingency.Lanes]float64) int) (res result) {
			defer func() { res.failed = recover() != nil }()
			res.next = body(&res.dst)
			return
		}
		want := run(func(dst *[contingency.Lanes]float64) int {
			for g := range valid {
				if k2GroupGo(dst, &ctrl[g], &cases[g], int(valid[g]), k2.lf, rows, bound) == 0 {
					return g
				}
			}
			return n
		})
		for name, body := range map[string]func(dst *[contingency.Lanes]float64) int{
			"ScoreGroups": func(dst *[contingency.Lanes]float64) int { return k2.ScoreGroups(dst, ctrl, cases, valid, rows, bound) },
			"k2LanesGo": func(dst *[contingency.Lanes]float64) int {
				return k2LanesGo(dst, ctrl, cases, valid, k2.lf, rows, bound)
			},
		} {
			got := run(body)
			if got.failed != want.failed {
				t.Fatalf("%s: %d groups at bound %v: failed = %v, group by group %v", name, n, bound, got.failed, want.failed)
			}
			if got.failed {
				continue
			}
			if got.next != want.next {
				t.Fatalf("%s: %d groups at bound %v: next %d, group by group %d", name, n, bound, got.next, want.next)
			}
			last := min(got.next, n-1)
			for lane := range int(valid[last]) {
				if math.Float64bits(got.dst[lane]) != math.Float64bits(want.dst[lane]) {
					t.Fatalf("%s: %d groups at bound %v, group %d lane %d: scored %v, group by group %v",
						name, n, bound, last, lane, got.dst[lane], want.dst[lane])
				}
			}
		}
		if contingency.HasAVX512() {
			var dst [contingency.Lanes]float64
			next, _, ok := k2LanesAVX512(&dst, &ctrl[0], &cases[0], &valid[0], n, &k2.lf.table[0], &k2.terms[0], k2.lf.Max(), rows, bound)
			if ok != !want.failed || ok && next != want.next {
				t.Fatalf("vector body: next %d ok = %v, want ok = %v and next %d", next, ok, !want.failed, want.next)
			}
		}
	})
}

// BenchmarkK2Lanes times K2 over eight tables (one op is one group of
// eight) of 500 samples, whose counts all lie below termSide so that the
// vector body takes one term-table gather per row, and of 16384 samples,
// whose counts do not, so that it takes three from the LnFact table: on
// each body at three bounds, one the group's sums pass after about 9 of
// the 27 rows, one they pass after about 18, and +Inf, which they never
// pass (the full sum). The row the group stops after is reported as
// exit-row; ScoreColumns, which has no bound, is the baseline. The run-64
// arm times ScoreGroups over a run of 64 such groups (one op is the run;
// ns/group is per group) at a bound every group's sums pass after at most
// 18 rows, so that it rejects them all, and reports their mean exit-row.
func BenchmarkK2Lanes(b *testing.B) {
	for _, n := range []int{500, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkK2Lanes(b, n) })
	}
}

// partialMins returns, for r = 0..27, the lowest of a group's eight
// partial sums after r rows.
func partialMins(k2 *K2Objective, ctrl, cases *contingency.LaneTable) (partial [contingency.Cells + 1]float64) {
	for r := 1; r <= contingency.Cells; r++ {
		partial[r] = math.Inf(1)
		for lane := 0; lane < contingency.Lanes; lane++ {
			sum := 0.0
			for cell := 0; cell < r; cell++ {
				sum += K2Term(k2.lf, int(ctrl[cell][lane]), int(cases[cell][lane]))
			}
			partial[r] = min(partial[r], sum)
		}
	}
	return partial
}

// exitRow is the row a group with these partial minima is given up after
// at bound: the first whose minimum is above it, or the last.
func exitRow(partial *[contingency.Cells + 1]float64, bound float64) int {
	for r := 1; r <= contingency.Cells; r++ {
		if partial[r] > bound {
			return r
		}
	}
	return contingency.Cells
}

// benchGroup draws one group of eight lane tables of n samples, half of
// them cases, each lane a typical one.
func benchGroup(r *rand.Rand, n int) (ctrl, cases contingency.LaneTable) {
	ctrl, cases = randomLaneTables(r, n/2, n-n/2, contingency.Cells, 8)
	for lane := 0; lane < 3; lane++ { // the extreme columns are not typical
		for cell := range ctrl {
			ctrl[cell][lane], cases[cell][lane] = ctrl[cell][3+lane], cases[cell][3+lane]
		}
	}
	return ctrl, cases
}

func benchmarkK2Lanes(b *testing.B, n int) {
	k2 := NewK2(n)
	ctrl, cases := benchGroup(rand.New(rand.NewSource(6)), n)
	// partial[r] is the lowest of the eight sums after r rows; a bound just
	// under it stops the group after r rows at the latest.
	partial := partialMins(k2, &ctrl, &cases)
	bounds := []struct {
		name  string
		bound float64
	}{
		{"exit-9", math.Nextafter(partial[9], math.Inf(-1))},
		{"exit-18", math.Nextafter(partial[18], math.Inf(-1))},
		{"never", math.Inf(1)},
	}
	var dst [contingency.Lanes]float64
	for _, body := range k2Bodies(k2, contingency.Cells) {
		if strings.HasSuffix(body.name, "/run") {
			continue // run-64 times the run form without copying a group into a run
		}
		for _, bd := range bounds {
			b.Run(body.name+"/"+bd.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					body.score(&dst, &ctrl, &cases, 8, bd.bound)
				}
				b.ReportMetric(float64(exitRow(&partial, bd.bound)), "exit-row")
			})
		}
	}
	b.Run("columns", func(b *testing.B) {
		var ctrlCol, casesCol [contingency.Cells]int32
		for i := 0; i < b.N; i++ {
			ScoreColumns(k2, &dst, &ctrl, &cases, contingency.Cells, 8, ctrlCol[:], casesCol[:])
		}
	})
	b.Run("run-64", func(b *testing.B) {
		const groups = 64
		r := rand.New(rand.NewSource(7))
		run := [2][]contingency.LaneTable{make([]contingency.LaneTable, groups), make([]contingency.LaneTable, groups)}
		valid := make([]uint8, groups)
		parts := make([][contingency.Cells + 1]float64, groups)
		bound := math.Inf(1)
		for g := range valid {
			run[0][g], run[1][g] = benchGroup(r, n)
			valid[g] = contingency.Lanes
			parts[g] = partialMins(k2, &run[0][g], &run[1][g])
			bound = min(bound, parts[g][18])
		}
		bound = math.Nextafter(bound, math.Inf(-1))
		rows := 0
		for g := range parts {
			rows += exitRow(&parts[g], bound)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if k2.ScoreGroups(&dst, run[0], run[1], valid, contingency.Cells, bound) != groups {
				b.Fatal("a group of the run was not rejected")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/groups, "ns/group")
		b.ReportMetric(float64(rows)/groups, "exit-row")
	})
}
