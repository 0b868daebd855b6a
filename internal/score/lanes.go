package score

import "trigene/internal/contingency"

// LaneScorer is implemented by lower-is-better objectives that can score
// the tables of a lanes pass (contingency.LaneKernel's Block, or
// LaneKernel.PairLanes for pairs) where they lie: the table
// of lane l is the first rows rows of column l of ctrl and of cases —
// contingency.Cells for a triple, contingency.PairCells for a pair.
// ScoreLanes sets dst[l] for l < valid to exactly what ScoreCells gives
// on that table, bit for bit — or, if that score is above bound, to some
// value above bound: a table may be given up on as soon as it provably
// cannot score bound or better. It returns true (rejected) only if every
// valid lane's score is above bound; bound = +Inf never rejects and
// always gives the exact scores. Rows past rows and lanes at and past
// valid may hold anything; they are not read as counts and what dst
// holds for such lanes is undefined. K2 implements it; the engine falls
// back to ScoreColumns for an objective that does not.
type LaneScorer interface {
	ScoreLanes(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, rows, valid int, bound float64) (rejected bool)
}

// ScoreColumns is ScoreLanes for any objective, without a bound: the
// first rows of each valid lane's column are copied into the column
// scratches ctrlCol and casesCol, each at least rows long, and scored
// through ScoreCells.
func ScoreColumns(obj Objective, dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, rows, valid int, ctrlCol, casesCol []int32) {
	for lane := 0; lane < valid; lane++ {
		for cell := 0; cell < rows; cell++ {
			ctrlCol[cell], casesCol[cell] = ctrl[cell][lane], cases[cell][lane]
		}
		dst[lane] = obj.ScoreCells(ctrlCol[:rows], casesCol[:rows])
	}
}

// ScoreLanes implements LaneScorer. Giving up early is exact for K2
// because every row term (lnFact(r0+r1+1) − lnFact(r0)) − lnFact(r1) is
// ≥ +0 in float64 (TestK2TermsNeverNegative): the sum in row order never
// decreases, so once it is above bound the whole table's score is too.
// Both bodies check every count against the LnFact table, past the row
// they stop at as well: the vector body declines a table with a count
// outside it, and the Go body then fails on it the way Score does (or
// scores it, if the vector body's check was only too coarse). A group
// whose valid lanes' counts all lie below termSide, nearly every group of
// a search over a few hundred samples, the vector body scores from the
// term table, one lookup per row instead of three.
func (o *K2Objective) ScoreLanes(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, rows, valid int, bound float64) bool {
	return o.ScoreLanesStop(dst, ctrl, cases, rows, valid, bound) > 0
}

// ScoreLanesStop is ScoreLanes that also says where the group was given
// up on: the number of rows after which every valid lane's sum was first
// above bound, or 0 when some valid lane's sum is not above it after the
// last of the rows (the group is not rejected; every row was summed). A
// lane's sum never decreases, so that row is the latest of the rows each
// lane alone passes bound at, and both bodies report the same one. Only
// the first rows (1..contingency.Cells) of the tables are read or checked.
func (o *K2Objective) ScoreLanesStop(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, rows, valid int, bound float64) (stop int) {
	valid = min(valid, contingency.Lanes)
	if rows < 1 || rows > contingency.Cells {
		// A caller's bug: the lanes pass scores contingency.Cells or
		// contingency.PairCells rows, and permtest scores in lanes only the
		// candidates checkCand finds at most contingency.Cells cells.
		panic("score: lane table rows out of range")
	}
	if contingency.HasAVX512() && valid > 0 {
		if stop, ok := k2LanesAVX512(dst, ctrl, cases, &o.lf.table[0], &o.terms[0], o.lf.Max(), 1<<valid-1, rows, bound); ok {
			return stop
		}
	}
	return k2LanesGo(dst, ctrl, cases, o.lf, rows, valid, bound)
}

// k2LanesGo is the pure-Go body of K2's ScoreLanesStop and its oracle:
// k2's sum over the first rows, lane by lane, each lane stopped after the
// first row that takes its sum above bound.
func k2LanesGo(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, lf *LnFact, rows, valid int, bound float64) (stop int) {
	for lane := 0; lane < valid; lane++ {
		score, after := 0.0, 0
		for cell := range ctrl[:rows] {
			r0 := int(ctrl[cell][lane])
			r1 := int(cases[cell][lane])
			if after > 0 {
				// Past the stop a row is only checked: a count outside
				// the table fails here as it does in Score.
				_, _, _ = lf.table[r0+r1+1], lf.table[r0], lf.table[r1]
				continue
			}
			score += K2Term(lf, r0, r1)
			if score > bound {
				after = cell + 1
			}
		}
		dst[lane] = score
		if after == 0 {
			after = rows + 1 // this lane never stops: neither does the group
		}
		stop = max(stop, after)
	}
	if stop > rows {
		return 0
	}
	return stop
}
