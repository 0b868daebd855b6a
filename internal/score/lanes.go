package score

import "trigene/internal/contingency"

// LaneScorer is implemented by objectives that can score the tables of a
// lanes pass (contingency.PairBlock.AccumulateLanes) where they lie: the
// table of lane l has column l of ctrl and of cases as its class rows.
// ScoreLanes sets dst[l] for l < valid to exactly what Score gives on
// that table, bit for bit. Lanes at and past valid may hold anything;
// they are not read as counts and what dst holds for them is undefined.
// K2 implements it; the engine falls back to ScoreColumns for an
// objective that does not.
type LaneScorer interface {
	ScoreLanes(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int)
}

// ScoreColumns is ScoreLanes for any objective: each valid lane's column
// is copied into the scratch table and scored through Score.
func ScoreColumns(obj Objective, dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int, scratch *contingency.Table) {
	for lane := 0; lane < valid; lane++ {
		for cell := range scratch.Counts[0] {
			scratch.Counts[0][cell] = ctrl[cell][lane]
			scratch.Counts[1][cell] = cases[cell][lane]
		}
		dst[lane] = obj.Score(scratch)
	}
}

// ScoreLanes implements LaneScorer. The vector body declines a table
// with a count outside the LnFact table; the Go body then fails on it
// the way Score does.
func (o *K2Objective) ScoreLanes(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, valid int) {
	valid = min(valid, contingency.Lanes)
	if contingency.HasAVX512() && valid > 0 &&
		k2LanesAVX512(dst, ctrl, cases, &o.lf.table[0], o.lf.Max(), 1<<valid-1) {
		return
	}
	k2LanesGo(dst, ctrl, cases, o.lf, valid)
}

// k2LanesGo is the pure-Go body of K2's ScoreLanes and its oracle: k2's
// sum, lane by lane.
func k2LanesGo(dst *[contingency.Lanes]float64, ctrl, cases *contingency.LaneTable, lf *LnFact, valid int) {
	for lane := 0; lane < valid; lane++ {
		score := 0.0
		for cell := range ctrl {
			r0 := int(ctrl[cell][lane])
			r1 := int(cases[cell][lane])
			score += lf.At(r0+r1+1) - lf.At(r0) - lf.At(r1)
		}
		dst[lane] = score
	}
}
