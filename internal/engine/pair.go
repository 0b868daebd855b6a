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
// (9 cells embedded in a Table).

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
// contingency.BuildPair, is always used — a pair's four planes fit the
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
// colexicographic pair ranks, builds each pair's embedded table with
// the 4-counted / 5-derived kernel and offers the scored pair to its
// arena's top-K — and, on a screen, charges the score to both SNPs.
type pairWalker struct {
	split  *dataset.Split
	marg   *[2][][2]int32
	m      int
	score  func(*contingency.Table) float64
	screen *screenPlanes // nil on a pair search
	a      *arena
}

func (s *Searcher) newPairWalker(o *Options, a *arena, screen *screenPlanes) *pairWalker {
	w := &pairWalker{split: s.st.Split(), marg: s.marginals(), m: s.st.SNPs(),
		score: o.Objective.Score, screen: screen, a: a}
	// Rows 9..26 of an embedded pair table are empty, so an objective
	// that can score the nine pair rows alone does a third of the work.
	if ps, ok := o.Objective.(score.PairScorer); ok {
		w.score = ps.ScorePair
	}
	a.tab = contingency.Table{} // pooled: the kernel writes rows 0..8 only
	return w
}

// tile scores every pair rank in [t.Lo, t.Hi) and returns the count.
// Colexicographic order runs i over 0..j-1 for each j, so the four
// planes of j are sliced once per run and stay in L1 while the i planes
// stream past them.
func (w *pairWalker) tile(t sched.Tile) (int64, error) {
	split, marg, tab := w.split, w.marg, &w.a.tab
	n := [2]int32{int32(split.N[0]), int32(split.N[1])}
	i, j := combin.UnrankPair(t.Lo, w.m)
	for r := t.Lo; r < t.Hi; i, j = 0, j+1 {
		run := min(int64(j-i), t.Hi-r)
		r += run
		var y [2][2][]uint64
		for class := range y {
			y[class] = [2][]uint64{split.Plane(class, j, 0), split.Plane(class, j, 1)}
		}
		for end := i + int(run); i < end; i++ {
			for class := range y {
				contingency.BuildPair(&tab.Counts[class],
					split.Plane(class, i, 0), split.Plane(class, i, 1), y[class][0], y[class][1],
					marg[class][i], marg[class][j], n[class])
			}
			sc := w.score(tab)
			if w.screen != nil {
				w.screen.charge(i, j, sc)
			}
			w.a.top.offer(Pair{I: i, J: j}.scored(sc))
		}
	}
	w.a.scored += t.Len()
	return t.Len(), nil
}

// SearchPairs is a convenience wrapper: build a Searcher and run one
// 2-way search.
func SearchPairs(mx *dataset.Matrix, opts Options) (*Result, error) {
	s, err := New(mx)
	if err != nil {
		return nil, err
	}
	return s.RunPairs(opts)
}
