package engine

import (
	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
)

// flatRun is approaches V1 and V2: one full-length frequency table per
// combination, no tiling, over colexicographic combination ranks —
// claimed from the run's own cursor, or from a shared one when another
// consumer (the simulated GPU of a heterogeneous run) steals from the
// same space.
func (s *Searcher) flatRun(o *Options) (space, tiler, error) {
	m := s.st.SNPs()
	sp, err := flatSpace(combin.Triples(m), o, 3, "flat")
	if err != nil {
		return sp, nil, err
	}
	sp.approach = o.Approach.String()
	// Resolve exactly the encoding this approach consumes — V1 the
	// naive three-plane form, V2 the phenotype-split form — once,
	// before the pool starts; the store memoizes it for every later
	// run.
	var bin *dataset.Binarized
	var split *dataset.Split
	if o.Approach == V1Naive {
		bin = s.st.Binarized()
	} else {
		split = s.st.Split()
	}
	return sp, func(_ int, a *arena) tileFunc {
		return (&flatWorker{o: o, m: m, bin: bin, split: split, a: a}).tile
	}, nil
}

// flatWorker is one consumer of the flat tile stream. Its arena holds
// the reusable table and top-K, so the steady-state tile loop
// allocates nothing.
type flatWorker struct {
	o     *Options
	m     int
	bin   *dataset.Binarized // V1 only
	split *dataset.Split     // V2 only
	a     *arena
}

// tile scores every combination rank in [t.Lo, t.Hi).
func (w *flatWorker) tile(t sched.Tile) (int64, error) {
	naive := w.o.Approach == V1Naive
	obj := w.o.Objective
	i, j, k := combin.UnrankTriple(t.Lo, w.m)
	for r := t.Lo; r < t.Hi; r++ {
		if naive {
			w.a.tab = contingency.BuildNaive(w.bin, i, j, k)
		} else {
			w.a.tab = contingency.BuildSplit(w.split, i, j, k)
		}
		w.a.top.Offer(Triple{I: i, J: j, K: k}.scored(obj.Score(&w.a.tab)))
		i, j, k, _ = combin.NextTriple(i, j, k, w.m)
	}
	w.a.scored += t.Len()
	return t.Len(), nil
}
