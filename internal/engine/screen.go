package engine

import (
	"time"

	"trigene/internal/sched"
	"trigene/internal/score"
)

// Stage 1 of the two-stage screened search: an exhaustive pairwise
// scan that charges every pair's score to both participating SNPs, so
// the survivor selection ("top-S SNPs by best participating pair
// score") and the seed list ("top pairs") fall out of one pass over
// C(M,2). The scan is the pair engine's (scanPairs: same kernel, walker,
// scheduler and sharding); only the sink differs.

// ScreenResult is the outcome of a stage-1 pairwise screen.
type ScreenResult struct {
	// SNPs is M, the length of Best/Seen.
	SNPs int
	// Best[i] is the best score of any scanned pair containing SNP i,
	// valid only where Seen[i] is true (a sharded scan may never touch
	// some SNPs; NaN cannot ride the JSON wire, so presence is a
	// separate plane).
	Best []float64
	Seen []bool
	// TopPairs holds the best pairs seen, up to Options.TopK entries,
	// best first — the seed list of the seeded stage-2 mode.
	TopPairs []PairCandidate
	// Stats describes the scan (Combinations counts pairs).
	Stats Stats
	// Space is the covered slice of pair ranks when Shard restricted
	// the scan; nil means the full space.
	Space *sched.Tile
}

// RunPairScreen executes the stage-1 screen scan. Options are
// interpreted as for RunPairs: TopK bounds the seed pair list, Shard
// slices the colexicographic pair-rank space (each shard charges only
// the pairs it scanned, and sharded results merge with MergeScreens).
func (s *Searcher) RunPairScreen(opts Options) (*ScreenResult, error) {
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m := s.st.SNPs()
	res := &ScreenResult{SNPs: m}
	sinks := make([]*screenSink, o.Workers)
	tops := make([]*pairTopK, o.Workers)
	res.Stats.Combinations, res.Space, err = s.scanPairs(&o, func(w int) func(Pair, float64) {
		tops[w] = newPairTopK(o.Objective, o.TopK)
		sinks[w] = &screenSink{obj: o.Objective, best: make([]float64, m), seen: make([]bool, m), top: tops[w]}
		return sinks[w].take
	})
	if err != nil {
		return nil, err
	}

	res.Best = make([]float64, m)
	res.Seen = make([]bool, m)
	for _, w := range sinks {
		for i := 0; i < m; i++ {
			if !w.seen[i] {
				continue
			}
			if !res.Seen[i] || o.Objective.Better(w.best[i], res.Best[i]) {
				res.Best[i], res.Seen[i] = w.best[i], true
			}
		}
	}
	res.TopPairs = mergePairTopK(&o, tops)
	s.finishStats(&res.Stats, start)
	return res, nil
}

// screenSink is what one screen worker keeps of the pairs its walker
// scores. Its best/seen planes are private, so the scan has no
// synchronization in the hot loop; they merge once at the end.
type screenSink struct {
	obj  score.Objective
	best []float64
	seen []bool
	top  *pairTopK
}

// take charges the pair's score to both of its SNPs and offers the pair
// to the seed list.
func (w *screenSink) take(p Pair, sc float64) {
	for _, snp := range [2]int{p.I, p.J} {
		if !w.seen[snp] || w.obj.Better(sc, w.best[snp]) {
			w.best[snp], w.seen[snp] = sc, true
		}
	}
	w.top.take(p, sc)
}
