package engine

import (
	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
	"trigene/internal/score"
)

// Second-order (2-way) search: the interaction order targeted by
// GBOOST, episNP and GWISFI and supported by MPI3SNP. It shares the
// phenotype-split data, the NOR inference, the tile scheduler and the
// objectives with the 3-way engine; only the table kernel differs
// (9 cells embedded in the first rows of a table, built and scored in
// lane tables eight pairs at a time).

// Pair identifies a SNP combination i < j.
type Pair struct {
	I, J int
}

// scored returns the pair as a candidate at score sc.
func (p Pair) scored(sc float64) Candidate {
	return Candidate{SNPs: [contingency.MaxOrder]int{p.I, p.J}, Score: sc}
}

// RunPairs executes an exhaustive second-order search. Options are
// interpreted as for Run; Approach is ignored (the pair kernel,
// contingency.PairLanes, is always used — a pair's four planes fit the
// L1 cache whole, so there is nothing to tile). Shard slices the
// colexicographic pair-rank space.
func (s *Searcher) RunPairs(opts Options) (*Result, error) {
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	sp, err := flatSpace(combin.Pairs(s.st.SNPs()), &o, 2, "pair")
	if err != nil {
		return nil, err
	}
	return s.run(&o, sp, func(_ int, a *arena) tileFunc {
		return s.newPairWalker(&o, a, nil).tile
	})
}

// pairWalker is one consumer of a pair tile stream: it walks runs of
// colexicographic pair ranks eight pairs at a time, builds their embedded
// tables in the lanes of the arena's two pair lane tables with the
// 4-counted / 5-derived kernel, scores them there and offers the scored
// pairs to its arena's top-K — and, on a screen, charges each score to
// both SNPs.
type pairWalker struct {
	split *dataset.Split
	marg  *[2][][2]int32
	m     int
	obj   score.Objective
	// laneScorer is the objective's own bounded scoring of the lane
	// tables (nil: score.ScoreColumns, unbounded).
	laneScorer score.LaneScorer
	screen     *screenPlanes // nil on a pair search
	a          *arena
}

func (s *Searcher) newPairWalker(o *Options, a *arena, screen *screenPlanes) *pairWalker {
	w := &pairWalker{split: s.st.Split(), marg: s.marginals(), m: s.st.SNPs(),
		obj: o.Objective, screen: screen, a: a}
	w.laneScorer, _ = o.Objective.(score.LaneScorer)
	a.tab = contingency.Table{} // pooled: ScoreColumns writes rows 0..8 only
	return w
}

// tile scores every pair rank in [t.Lo, t.Hi) and returns the count.
// Colexicographic order runs i over 0..j-1 for each j, so a run's pairs
// (i, j) are the x SNPs i of consecutive lanes against one y: they go
// eight at a time, j's planes staying in L1 while the i planes stream
// past them.
func (w *pairWalker) tile(t sched.Tile) (int64, error) {
	i, j := combin.UnrankPair(t.Lo, w.m)
	for r := t.Lo; r < t.Hi; i, j = 0, j+1 {
		end := i + int(min(int64(j-i), t.Hi-r))
		r += int64(end - i)
		for ; i < end; i += contingency.Lanes {
			w.group(i, min(contingency.Lanes, end-i), j)
		}
	}
	w.a.scored += t.Len()
	return t.Len(), nil
}

// group counts, derives and scores the pairs (x+l, y), l < valid, and
// offers them — and charges them on a screen — in rank order. A
// LaneScorer is held to the bound of the group: a group it rejects holds
// no pair that could enter the top-K or improve either SNP's best, so its
// offers and charges are skipped and the list and the screen go through
// the states they would have gone through. A lane scored above the bound
// in a group that is not rejected is offered and charged, and turned away
// by both, as its full score would be.
func (w *pairWalker) group(x, valid, y int) {
	a, split := w.a, w.split
	for class := range a.pairLanes {
		contingency.PairLanes(&a.pairLanes[class], split.ClassPlaneData(class), split.Words[class],
			x, valid, y, w.marg[class], int32(split.N[class]))
	}
	ctrl, cases := &a.pairLanes[dataset.Control], &a.pairLanes[dataset.Case]
	if w.laneScorer != nil {
		if w.laneScorer.ScoreLanes(&a.laneScore, ctrl, cases, contingency.PairCells, valid, w.bound(x, valid, y)) {
			a.rejected++
			return
		}
	} else {
		score.ScoreColumns(w.obj, &a.laneScore, ctrl, cases, contingency.PairCells, valid, &a.tab)
	}
	for l, sc := range a.laneScore[:valid] {
		if w.screen != nil {
			w.screen.charge(x+l, y, sc)
		}
		a.top.Offer(Pair{I: x + l, J: y}.scored(sc))
	}
}

// bound is the score a group of pairs (x+l, y) is given up on above: the
// loosest of the worker's top-K bound and, on a screen, the bests of y and
// of every x SNP of the group (+Inf while any of them is unseen). A pair
// scoring above all of them changes nothing: Offer turns it away, and keep
// acts only on a better score. Bounds only ever come down during a run, so
// one read at the group's start is at worst looser than a fresh one.
func (w *pairWalker) bound(x, valid, y int) float64 {
	b := w.a.top.bound()
	if p := w.screen; p != nil {
		b = p.loosest(y, y+1, p.loosest(x, x+valid, b))
	}
	return b
}
