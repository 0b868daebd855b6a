package engine

import (
	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
)

// flatRun is approach V2: one full-length frequency table per
// combination from the phenotype-split form, no tiling, over
// colexicographic combination ranks — claimed from the run's own cursor,
// or from a shared one when another consumer (the simulated GPU of a
// heterogeneous run) steals from the same space.
func (s *Searcher) flatRun(o *Options) (space, tiler, error) {
	m := s.st.SNPs()
	sp, err := flatSpace(combin.Triples(m), o, 3, "flat")
	if err != nil {
		return sp, nil, err
	}
	sp.approach = o.Approach.String()
	// Resolve the split form once, before the pool starts; the store
	// memoizes it for every later run.
	split := s.st.Split()
	return sp, func(_ int, a *arena) tileFunc {
		return (&flatWorker{o: o, m: m, split: split, a: a}).tile
	}, nil
}

// flatWorker is one consumer of the flat tile stream. Its arena holds
// the reusable table and top-K, so the steady-state tile loop
// allocates nothing.
type flatWorker struct {
	o     *Options
	m     int
	split *dataset.Split
	a     *arena
}

// tile scores every combination rank in [t.Lo, t.Hi).
func (w *flatWorker) tile(t sched.Tile) (int64, error) {
	obj := w.o.Objective
	i, j, k := combin.UnrankTriple(t.Lo, w.m)
	for r := t.Lo; r < t.Hi; r++ {
		w.a.tab = contingency.BuildSplit(w.split, i, j, k)
		w.a.top.Offer(Triple{I: i, J: j, K: k}.scored(obj.Score(&w.a.tab)))
		i, j, k, _ = combin.NextTriple(i, j, k, w.m)
	}
	w.a.scored += t.Len()
	return t.Len(), nil
}
