package engine

import (
	"time"

	"trigene/internal/sched"
)

// space is the work one run claims: the source its cursor hands out,
// what its progress counts, and what the run is called in the metrics and
// the Result.
type space struct {
	src sched.Source
	// items is the progress total: the source's ranks, or, in the
	// block-triple space, the combinations they cover (counted only when
	// a Progress callback will read it).
	items int64
	// covered is the slice of the full space Shard restricted the run
	// to (nil: all of it); blockSNPs is the block size whose block
	// triples its ranks count (0: they are not block triples).
	covered   *sched.Tile
	blockSNPs int
	// order is the candidates' SNP count. kind labels the run's sched
	// series ("flat", "blocked", "pair", "kway" or "seeded") and approach
	// its engine series (V2, V3F or V4F on the order-3 pipelines, else kind).
	order          int
	kind, approach string
}

// flatSpace is the space of a run over the colexicographic ranks
// [0, total), restricted to o.Shard when set. The claim grain is sized
// from the restricted range, not the full space, so a small shard of a
// huge space still spreads across every worker.
func flatSpace(total int64, o *Options, order int, kind string) (space, error) {
	sp := space{src: sched.Flat(total, o.Workers), order: order, kind: kind, approach: kind}
	if o.Shard != nil {
		sub, err := sp.src.Shard(*o.Shard)
		if err != nil {
			return sp, err
		}
		b := sub.Bounds()
		sp.src, sp.covered = sub.WithGrain(sched.AutoGrain(sub.Ranks(), o.Workers)), &b
	}
	sp.items = sp.src.Ranks()
	return sp, nil
}

// tileFunc scores one claimed tile into its worker's arena — adding the
// combinations it scored to the arena's count, offering them to its
// top-K — and returns how many work items of the space it finished.
type tileFunc func(sched.Tile) (int64, error)

// tiler builds worker w's tile body over its arena; a run calls it once
// per worker before the pool starts.
type tiler func(w int, a *arena) tileFunc

// worker is one consumer of a run: its pooled arena and its tile body.
type worker struct {
	a    *arena
	tile tileFunc
}

// process runs the worker's body over one tile and records the tile in
// the run's series.
func (w *worker) process(t sched.Tile, rm *runMetrics) (int64, error) {
	scored := w.a.scored
	n, err := w.tile(t)
	rm.observe(w.a.scored-scored, w.a)
	return n, err
}

// run is the engine's one run loop — the paper's dynamically scheduled
// pool: a cursor over the space (or the shared one in o.Tiles), one
// worker per Options.Workers claiming tiles from it until it drains, each
// scoring into the private top-K of its pooled arena, and the lists
// merged at the end. Every search drives it; what differs between them
// is only their space and their tile body. It records every run the same
// way: progress, the cursor's sched series, the engine's series under
// the space's approach label, and Options.Meter's samples.
func (s *Searcher) run(o *Options, sp space, body tiler) (*Result, error) {
	start := time.Now()
	cur := o.Tiles
	if cur == nil {
		cur = sched.NewCursor(sp.src)
		if o.Progress != nil {
			cur.OnProgress(sp.items, o.Progress)
		}
	}
	cur.Instrument(o.Metrics, sp.kind)
	rm := resolveRunMetrics(o.Metrics, sp.approach)
	workers := make([]worker, o.Workers)
	for w := range workers {
		a := getArena(o.Objective, o.TopK)
		workers[w] = worker{a: a, tile: body(w, a)}
	}
	err := cur.Drain(o.Context, o.Workers, func(w int, t sched.Tile) (int64, error) {
		wk := &workers[w]
		if o.Meter == nil {
			return wk.process(t, &rm)
		}
		begin := time.Now()
		n, err := wk.process(t, &rm)
		o.Meter.Record(w, n, time.Since(begin))
		return n, err
	})

	res := &Result{Order: sp.order, Space: sp.covered, BlockSNPs: sp.blockSNPs}
	merged := NewTopK(o.Objective, o.TopK)
	for _, w := range workers {
		merged.merge(w.a.top)
		res.Stats.Combinations += w.a.scored
		w.a.release()
	}
	if err != nil {
		return nil, err
	}
	if res.TopK = merged.List(); len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	}
	st := &res.Stats
	st.Elements = float64(st.Combinations) * float64(s.st.Samples())
	st.Duration = time.Since(start)
	if secs := st.Duration.Seconds(); secs > 0 {
		st.ElementsPerSec = st.Elements / secs
	}
	return res, nil
}
