package score

import "trigene/internal/contingency"

// LaneScorer is implemented by lower-is-better objectives that can score
// the tables of a lanes pass (contingency.LaneKernel's Block, or
// LaneKernel.PairLanes for pairs) where they lie, a run of lane groups at
// a time: the table of lane l of group g is the first rows rows of column
// l of ctrl[g] and of cases[g] — contingency.Cells for a triple,
// contingency.PairCells for a pair — and lanes at and past valid[g]
// (at most contingency.Lanes) are not its.
//
// ScoreGroups scores the groups of the run in order, len(valid) of them,
// against bound, and returns the first it does not reject, with dst[l]
// for l < valid[next] set to exactly what ScoreCells gives on that
// table, bit for bit — or, if that score is above bound, to some value
// above bound — or len(valid) if it rejects every group. A group is
// rejected only if every valid lane's score is above bound: it may be
// given up on as soon as it provably cannot score bound or better, and
// bound = +Inf never rejects. The bound stays fixed over a run, so a
// caller whose bound moves when it takes a group's scores calls again
// from the group after: every group is then held to the bound it would
// have been held to alone. Rows past rows and lanes at and past valid[g]
// may hold anything; they are not read as counts, and what dst holds for
// such lanes is undefined. K2 implements it; the engine falls back to
// ScoreColumns for an objective that does not.
type LaneScorer interface {
	ScoreGroups(dst *[contingency.Lanes]float64, ctrl, cases []contingency.LaneTable, valid []uint8, rows int, bound float64) (next int)
}

// ScoreColumns is one group of ScoreGroups for any objective, without a
// bound: the first rows of each valid lane's column are copied into the
// column scratches ctrlCol and casesCol, each at least rows long, and
// scored through ScoreCells.
func ScoreColumns(obj Objective, dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, rows, valid int, ctrlCol, casesCol []int32) {
	for lane := 0; lane < valid; lane++ {
		for cell := 0; cell < rows; cell++ {
			ctrlCol[cell], casesCol[cell] = ctrl[cell][lane], cases[cell][lane]
		}
		dst[lane] = obj.ScoreCells(ctrlCol[:rows], casesCol[:rows])
	}
}

// ScoreGroups implements LaneScorer. Giving up early is exact for K2
// because every row term (lnFact(r0+r1+1) − lnFact(r0)) − lnFact(r1) is
// ≥ +0 in float64 (TestK2TermsNeverNegative): the sum in row order never
// decreases, so once it is above bound the whole table's score is too.
// Both bodies read a group's rows once, in order, up to the row it is
// given up after, and check each count they read against the LnFact
// table: the vector body declines a run with a count outside it in a row
// it reads, and the Go body then fails on it the way Score does. Rows
// past that one are neither read nor checked; the lanes pass, PairLanes
// and the permutation test's counter keep every count of a valid lane
// within its class or cell (TestLanesDeriveStaysInsideTheClass,
// TestPairLanesStaysInsideTheClass, TestCellCountsStayInsideTheCell), and
// NewK2(n) covers every index of a table of n samples. A row whose valid
// counts all lie below termSide, nearly every row of a search over a few
// hundred samples, the vector body scores from the term table, one lookup
// instead of three.
func (o *K2Objective) ScoreGroups(dst *[contingency.Lanes]float64, ctrl, cases []contingency.LaneTable, valid []uint8, rows int, bound float64) (next int) {
	checkLaneRows(rows)
	n := len(valid)
	if n == 0 {
		return 0
	}
	ctrl, cases = ctrl[:n], cases[:n]
	if contingency.HasAVX512() {
		if next, _, ok := k2LanesAVX512(dst, &ctrl[0], &cases[0], &valid[0], n, &o.lf.table[0], &o.terms[0], o.lf.Max(), rows, bound); ok {
			return next
		}
	}
	return k2LanesGo(dst, ctrl, cases, valid, o.lf, rows, bound)
}

// ScoreLanesStop is ScoreGroups over a run of one group, ctrl and cases
// with valid valid lanes, that says where the group was given up on: the
// number of rows after which every valid lane's sum was first above bound,
// or 0 when some valid lane's sum is not above it after the last of the
// rows (the group is not rejected; every row was summed). A lane's sum
// never decreases, so that row is the latest of the rows each lane alone
// passes bound at, and both bodies report the same one. When the group is
// rejected, dst holds each valid lane's sum up to that row.
func (o *K2Objective) ScoreLanesStop(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, rows, valid int, bound float64) (stop int) {
	checkLaneRows(rows)
	v := uint8(min(max(valid, 0), contingency.Lanes))
	if contingency.HasAVX512() {
		if _, stop, ok := k2LanesAVX512(dst, ctrl, cases, &v, 1, &o.lf.table[0], &o.terms[0], o.lf.Max(), rows, bound); ok {
			return stop
		}
	}
	return k2GroupGo(dst, ctrl, cases, int(v), o.lf, rows, bound)
}

// checkLaneRows refuses a row count outside 1..contingency.Cells.
func checkLaneRows(rows int) {
	if rows < 1 || rows > contingency.Cells {
		// A caller's bug: the lanes pass scores contingency.Cells or
		// contingency.PairCells rows, and permtest scores in lanes only the
		// candidates checkCand finds at most contingency.Cells cells.
		panic("score: lane table rows out of range")
	}
}

// k2LanesGo is the pure-Go body of ScoreGroups and its oracle: k2GroupGo
// on each group of the run in turn, up to the first it does not reject.
func k2LanesGo(dst *[contingency.Lanes]float64, ctrl, cases []contingency.LaneTable, valid []uint8, lf *LnFact, rows int, bound float64) (next int) {
	for g, v := range valid {
		if k2GroupGo(dst, &ctrl[g], &cases[g], int(v), lf, rows, bound) == 0 {
			return g
		}
	}
	return len(valid)
}

// k2GroupGo is the pure-Go body of K2's lane scoring, one group of a run,
// and the vector body's oracle: row by row, each valid lane's K2Term is
// added to its sum, until after some row every valid lane's sum is above
// bound — the group is rejected, dst holds the sums so far and that row
// is returned — or the rows run out and 0 is returned, dst holding the
// exact scores. It reads and checks exactly the rows the vector body
// reads, so a count outside the LnFact table in one of them fails here as
// it does in Score, and dst gets the vector body's bits.
func k2GroupGo(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, lf *LnFact, rows int, bound float64) (stop int) {
	valid = min(valid, contingency.Lanes)
	*dst = [contingency.Lanes]float64{}
	for row := range rows {
		above := true
		for lane := range valid {
			dst[lane] += K2Term(lf, int(ctrl[row][lane]), int(cases[row][lane]))
			above = above && dst[lane] > bound
		}
		if above {
			return row + 1
		}
	}
	return 0
}
