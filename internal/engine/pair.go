package engine

import (
	"time"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
	"trigene/internal/score"
	"trigene/internal/topk"
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

// Less orders pairs lexicographically (the deterministic tie-break).
func (p Pair) Less(o Pair) bool {
	if p.I != o.I {
		return p.I < o.I
	}
	return p.J < o.J
}

// PairCandidate is a scored SNP pair.
type PairCandidate struct {
	Pair  Pair
	Score float64
}

// PairResult is the outcome of an exhaustive 2-way search.
type PairResult struct {
	Best  PairCandidate
	TopK  []PairCandidate
	Stats Stats
	// Space is the covered slice of pair ranks when Shard restricted
	// the run; nil means the full space.
	Space *sched.Tile
}

// RunPairs executes an exhaustive second-order search. Options are
// interpreted as for Run; Approach is ignored (the pair kernel,
// contingency.BuildPair, is always used — a pair's four planes fit the
// L1 cache whole, so there is nothing to tile). Shard slices the
// colexicographic pair-rank space.
func (s *Searcher) RunPairs(opts Options) (*PairResult, error) {
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tops := make([]*pairTopK, o.Workers)
	res := &PairResult{}
	res.Stats.Combinations, res.Space, err = s.scanPairs(&o, func(w int) func(Pair, float64) {
		tops[w] = newPairTopK(o.Objective, o.TopK)
		return tops[w].take
	})
	if err != nil {
		return nil, err
	}
	res.TopK = mergePairTopK(&o, tops)
	if len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	}
	s.finishStats(&res.Stats, start)
	return res, nil
}

// scanPairs drains the pair-rank space (Shard-restricted if asked)
// through one pairWalker per worker, worker w delivering every scored
// pair to sinkFor(w), and returns the number of pairs scored and the
// covered slice of a restricted space. It is the whole of a pair run
// but for what the sinks keep.
func (s *Searcher) scanPairs(o *Options, sinkFor func(worker int) func(Pair, float64)) (int64, *sched.Tile, error) {
	m := s.st.SNPs()
	src, space, err := flatSpace(combin.Pairs(m), o)
	if err != nil {
		return 0, nil, err
	}
	cur := sched.NewCursor(src)
	if o.Progress != nil {
		cur.OnProgress(src.Ranks(), o.Progress)
	}
	walkers := make([]*pairWalker, o.Workers)
	for w := range walkers {
		walkers[w] = s.newPairWalker(o, sinkFor(w))
	}
	err = cur.Drain(o.Context, o.Workers, func(w int, t sched.Tile) (int64, error) {
		return walkers[w].tile(t), nil
	})
	var scored int64
	for _, w := range walkers {
		scored += w.a.scored
		w.a.release()
	}
	return scored, space, err
}

// pairWalker is one consumer of a pair tile stream: it walks runs of
// colexicographic pair ranks, builds each pair's embedded table with
// the 4-counted / 5-derived kernel and hands the score to its sink (the
// pair search's top-K, or the screen's per-SNP planes).
type pairWalker struct {
	split *dataset.Split
	marg  *[2][][2]int32
	m     int
	score func(*contingency.Table) float64
	sink  func(Pair, float64)
	a     *arena
}

func (s *Searcher) newPairWalker(o *Options, sink func(Pair, float64)) *pairWalker {
	w := &pairWalker{split: s.st.Split(), marg: s.marginals(), m: s.st.SNPs(),
		score: o.Objective.Score, sink: sink, a: getArena(o.Objective, 0, 0)}
	// Rows 9..26 of an embedded pair table are empty, so an objective
	// that can score the nine pair rows alone does a third of the work.
	if ps, ok := o.Objective.(score.PairScorer); ok {
		w.score = ps.ScorePair
	}
	w.a.tab = contingency.Table{} // pooled: the kernel writes rows 0..8 only
	return w
}

// tile scores every pair rank in [t.Lo, t.Hi) and returns the count.
// Colexicographic order runs i over 0..j-1 for each j, so the four
// planes of j are sliced once per run and stay in L1 while the i planes
// stream past them.
func (w *pairWalker) tile(t sched.Tile) int64 {
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
			w.sink(Pair{I: i, J: j}, w.score(tab))
		}
	}
	w.a.scored += t.Len()
	return t.Len()
}

// SearchPairs is a convenience wrapper: build a Searcher and run one
// 2-way search.
func SearchPairs(mx *dataset.Matrix, opts Options) (*PairResult, error) {
	s, err := New(mx)
	if err != nil {
		return nil, err
	}
	return s.RunPairs(opts)
}

// pairTopK adapts the candidate accumulator to pairs, keeping the
// shared objective-then-lexicographic ordering.
type pairTopK struct {
	k     int
	items []PairCandidate
	cmp   func(a, b PairCandidate) bool
}

func newPairTopK(obj score.Objective, k int) *pairTopK {
	return &pairTopK{k: k, cmp: func(a, b PairCandidate) bool {
		if a.Score != b.Score {
			return obj.Better(a.Score, b.Score)
		}
		return a.Pair.Less(b.Pair)
	}}
}

func (t *pairTopK) offer(c PairCandidate) {
	t.items = topk.Insert(t.items, c, t.k, t.cmp)
}

// take is offer in the shape of a pairWalker sink.
func (t *pairTopK) take(p Pair, sc float64) { t.offer(PairCandidate{Pair: p, Score: sc}) }

// mergePairTopK folds the workers' pair lists into one ranked list.
func mergePairTopK(o *Options, tops []*pairTopK) []PairCandidate {
	merged := newPairTopK(o.Objective, o.TopK)
	for _, t := range tops {
		for _, c := range t.items {
			merged.offer(c)
		}
	}
	return merged.items
}
