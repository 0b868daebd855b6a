package engine

import (
	"math"

	"trigene/internal/sched"
	"trigene/internal/score"
)

// Stage 1 of the two-stage screened search: an exhaustive pairwise
// scan that charges every pair's score to both participating SNPs, so
// the survivor selection ("top-S SNPs by best participating pair
// score") and the seed list ("top pairs") fall out of one pass over
// C(M,2). The scan is the pair search (same pass, block-pair space and
// sharding) with per-worker screen planes beside each top-K; the planes'
// bests join the bound a group of up to eight pairs is given up on above,
// so a group none of whose pairs improves a best or enters the top-K is
// never charged (blockWorker.processBlockPair).

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
	// TopPairs holds the best pairs seen, up to Options.TopK order-2
	// candidates, best first — the seed list of the seeded stage-2 mode.
	TopPairs []Candidate
	// Stats describes the scan (Combinations counts pairs).
	Stats Stats
	// Space is the covered slice of block-pair ranks when Shard
	// restricted the scan; nil means the full space.
	Space *sched.Tile
}

// RunPairScreen executes the stage-1 screen scan. Options are
// interpreted as for RunPairs: TopK bounds the seed pair list, Shard
// slices the block-pair space (each shard charges only the pairs it
// scanned, and sharded results merge with MergeScreens).
func (s *Searcher) RunPairScreen(opts Options) (*ScreenResult, error) {
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	m := s.st.SNPs()
	planes := make([]*screenPlanes, o.Workers)
	pairs, err := s.pairRun(&o, planes)
	if err != nil {
		return nil, err
	}
	merged := newScreenPlanes(o.Objective, m)
	for _, w := range planes {
		for i, seen := range w.seen {
			if seen {
				merged.keep(i, w.best[i])
			}
		}
	}
	return &ScreenResult{SNPs: m, Best: merged.best, Seen: merged.seen,
		TopPairs: pairs.TopK, Stats: pairs.Stats, Space: pairs.Space}, nil
}

// screenPlanes is one screen worker's per-SNP bests. They are private,
// so the scan has no synchronization in the hot loop; they merge once at
// the end.
type screenPlanes struct {
	obj  score.Objective
	best []float64
	seen []bool
}

func newScreenPlanes(obj score.Objective, m int) *screenPlanes {
	return &screenPlanes{obj: obj, best: make([]float64, m), seen: make([]bool, m)}
}

// charge charges pair (i, j)'s score to both of its SNPs.
func (p *screenPlanes) charge(i, j int, sc float64) {
	p.keep(i, sc)
	p.keep(j, sc)
}

// keep makes sc SNP snp's best if it has none yet or sc is better.
func (p *screenPlanes) keep(snp int, sc float64) {
	if !p.seen[snp] || p.obj.Better(sc, p.best[snp]) {
		p.best[snp], p.seen[snp] = sc, true
	}
}

// loosest is, for a lower-is-better objective, the loosest of b and the
// scores above which keep leaves the bests of SNPs lo..hi-1 alone: +Inf if
// any of them has none yet.
func (p *screenPlanes) loosest(lo, hi int, b float64) float64 {
	best := p.best[lo:hi]
	for k, seen := range p.seen[lo:hi] {
		if !seen {
			return math.Inf(1)
		}
		if best[k] > b {
			b = best[k]
		}
	}
	return b
}
