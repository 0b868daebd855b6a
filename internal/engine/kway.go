package engine

import (
	"fmt"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
	"trigene/internal/score"
)

// Arbitrary-order exhaustive search. The paper's introduction motivates
// interactions "of three or more SNPs"; RunK runs the paper's V2 split
// builder (contingency.BuildSplitK) at any order in [2,
// contingency.MaxOrder] over colexicographic combination ranks, scoring
// each combination's 3^k cells through the objective's ScoreCells. Its
// rank body, kWorker, is also Run's V2 at order 3. Orders 2 and 3 have
// faster paths (RunPairs, Run's V3F/V4F).

// RunK executes an exhaustive search of the given interaction order.
// Options are interpreted as for Run; the Objective scores each
// combination's 3^k cells through ScoreCells. Shard slices the
// colexicographic k-combination rank space.
func (s *Searcher) RunK(order int, opts Options) (*Result, error) {
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	m := s.st.SNPs()
	if err := CheckSpace(m, order); err != nil {
		return nil, err
	}
	if order > m {
		return nil, fmt.Errorf("engine: order %d exceeds %d SNPs", order, m)
	}
	sp, body, err := s.kway(&o, order, "kway")
	if err != nil {
		return nil, err
	}
	return s.run(&o, sp, body)
}

// kway returns the space of an order-k run over the colexicographic
// combination ranks, under the sched label kind, and its rank body.
func (s *Searcher) kway(o *Options, order int, kind string) (space, tiler, error) {
	m := s.st.SNPs()
	sp, err := flatSpace(combin.Binomial(m, order), o, order, kind)
	if err != nil {
		return sp, nil, err
	}
	// Resolve the split form once, before the pool starts; the store
	// memoizes it for every later run.
	split := s.st.Split()
	cells := contingency.CellsK(order)
	return sp, func(_ int, a *arena) tileFunc {
		a.sizeK(cells)
		return (&kWorker{split: split, m: m, order: order, a: a, scorer: o.Objective}).tile
	}, nil
}

// CheckSpace refuses an order-k search of n SNPs whose order lies
// outside [2, contingency.MaxOrder] (a spec's order reaches it unchecked
// from a cluster submission) or whose C(n,k) combinations are more than
// an int64 counts.
func CheckSpace(n, k int) error {
	if k < 2 || k > contingency.MaxOrder {
		return fmt.Errorf("engine: order %d out of [2,%d]", k, contingency.MaxOrder)
	}
	if _, ok := combin.BinomialChecked(n, k); !ok {
		return fmt.Errorf("engine: an order-%d search of %d SNPs spans C(%d,%d) combinations, more than an int64 counts", k, n, n, k)
	}
	return nil
}

// kWorker is one consumer of the k-combination tile stream. Its
// candidate's SNPs are the enumeration's scratch: the combination in
// hand is offered as it lies.
type kWorker struct {
	split  *dataset.Split
	m      int
	order  int
	a      *arena
	scorer score.CellScorer
	c      Candidate
}

// tile scores every combination rank in [t.Lo, t.Hi).
func (w *kWorker) tile(t sched.Tile) (int64, error) {
	comb, ctrl, cases := w.c.SNPs[:w.order], w.a.ctrl, w.a.cases
	combin.UnrankK(t.Lo, w.m, comb)
	for r := t.Lo; r < t.Hi; r++ {
		for i := range ctrl {
			ctrl[i], cases[i] = 0, 0
		}
		if err := contingency.BuildSplitK(w.split, comb, ctrl, cases); err != nil {
			return 0, err
		}
		w.c.Score = w.scorer.ScoreCells(ctrl, cases)
		w.a.top.Offer(w.c)
		combin.NextK(comb, w.m)
	}
	w.a.scored += t.Len()
	return t.Len(), nil
}
