package engine

import (
	"time"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
)

// runFlat executes approaches V1 and V2: one full-length frequency
// table per combination, no tiling. Consumers claim tiles of
// combination ranks from a sched.Cursor — the run's own, or a shared
// one when another consumer (the simulated GPU of a heterogeneous
// run) is stealing from the same space.
func (s *Searcher) runFlat(o Options) (*Result, error) {
	res := &Result{}
	cur := o.Tiles
	if cur == nil {
		src, space, err := flatSpace(combin.Triples(s.st.SNPs()), &o)
		if err != nil {
			return nil, err
		}
		res.Space = space
		cur = sched.NewCursor(src)
		if o.Progress != nil {
			cur.OnProgress(src.Ranks(), o.Progress)
		}
	}

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
	workers := make([]*flatWorker, o.Workers)
	for w := range workers {
		workers[w] = &flatWorker{o: &o, m: s.st.SNPs(), bin: bin, split: split, a: getArena(o.Objective, o.TopK, 0)}
	}
	cur.Instrument(o.Metrics, "flat")
	rm := resolveRunMetrics(o.Metrics, o.Approach)
	err := cur.Drain(o.Context, o.Workers, func(w int, t sched.Tile) (int64, error) {
		if o.Meter == nil {
			n := workers[w].tile(t)
			rm.observe(n, workers[w].a)
			return n, nil
		}
		start := time.Now()
		n := workers[w].tile(t)
		o.Meter.Record(o.MeterBase+w, n, time.Since(start))
		rm.observe(n, workers[w].a)
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	assembleFlat(res, &o, workers)
	return res, nil
}

// flatSpace builds the claimable source of a flat-rank run from the
// total space and the RankRange/Shard options, returning the covered
// slice when the options restricted it. The claim grain is sized from
// the restricted range, not the full space, so a small shard of a
// huge space still spreads across every worker.
func flatSpace(total int64, o *Options) (sched.Source, *sched.Tile, error) {
	lo, hi := int64(0), total
	var space *sched.Tile
	if r := o.RankRange; r != nil {
		if hi = r.Hi; hi > total {
			hi = total
		}
		if lo = r.Lo; lo > hi {
			lo = hi
		}
		space = &sched.Tile{Lo: lo, Hi: hi}
	}
	src := sched.NewSource(lo, hi, flatGrain(hi-lo, o))
	if o.Shard != nil {
		sub, err := src.Shard(*o.Shard)
		if err != nil {
			return src, nil, err
		}
		src = sub.WithGrain(flatGrain(sub.Ranks(), o))
		b := src.Bounds()
		space = &b
	}
	return src, space, nil
}

// flatGrain picks the ranks-per-claim for a flat run: the planner's
// hint reconciled with the AutoGrain heuristic (sched.SeededGrain
// owns that policy for every consumer of the scheduler).
func flatGrain(ranks int64, o *Options) int64 {
	return sched.SeededGrain(ranks, o.Workers, o.Grain)
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

// tile scores every combination rank in [t.Lo, t.Hi) and returns the
// count.
func (w *flatWorker) tile(t sched.Tile) int64 {
	naive := w.o.Approach == V1Naive
	obj := w.o.Objective
	i, j, k := combin.UnrankTriple(t.Lo, w.m)
	for r := t.Lo; r < t.Hi; r++ {
		if naive {
			w.a.tab = contingency.BuildNaive(w.bin, i, j, k)
		} else {
			w.a.tab = contingency.BuildSplit(w.split, i, j, k)
		}
		w.a.top.offer(Candidate{
			Triple: Triple{I: i, J: j, K: k},
			Score:  obj.Score(&w.a.tab),
		})
		i, j, k, _ = combin.NextTriple(i, j, k, w.m)
	}
	w.a.scored += t.Len()
	return t.Len()
}

// assembleFlat merges the workers' accumulators into res and returns
// their arenas to the pool.
func assembleFlat(res *Result, o *Options, workers []*flatWorker) {
	merged := newTopK(o.Objective, o.TopK)
	for _, w := range workers {
		merged.merge(w.a.top)
		res.Stats.Combinations += w.a.scored
		w.a.release()
	}
	res.TopK = merged.list()
	if len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	}
}
