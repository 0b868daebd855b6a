package engine

import "trigene/internal/contingency"

// Second-order (2-way) search: the interaction order targeted by
// GBOOST, episNP and GWISFI and supported by MPI3SNP. It shares the
// phenotype-split data, the tile scheduler and the objectives with the
// 3-way engine, and its block walk: a block pair's tables are the (y, z)
// tables the lanes pass derives from (9 cells embedded in the first rows
// of a lane table, eight pairs at a time), scored where they lie.

// Pair identifies a SNP combination i < j.
type Pair struct {
	I, J int
}

// scored returns the pair as a candidate at score sc.
func (p Pair) scored(sc float64) Candidate {
	return Candidate{SNPs: [contingency.MaxOrder]int{p.I, p.J}, Score: sc}
}

// RunPairs executes an exhaustive second-order search. Options are
// interpreted as for Run: it is the pair pass of the block walk, over
// block pairs (b1 <= b2) of contingency.Lanes SNPs, each scored in lane
// groups of b1's SNPs against one SNP of b2 (blockWorker.processBlockPair)
// on the lanes pass's kernel — the Go bodies for V3F, the host's
// otherwise. Shard slices the block-pair space; a shared cursor
// (Options.Tiles) is refused.
func (s *Searcher) RunPairs(opts Options) (*Result, error) {
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	return s.pairRun(&o, nil)
}

// pairRun runs the pair pass over the block-pair space; on a screen, each
// worker w charges its pairs to planes[w], which it makes.
func (s *Searcher) pairRun(o *Options, planes []*screenPlanes) (*Result, error) {
	sp, bt, err := s.blockSpace(o, 2, "pair", "pair")
	if err != nil {
		return nil, err
	}
	return s.run(o, sp, func(w int, a *arena) tileFunc {
		bw := s.newBlockWorker(o, a, bt, nil)
		if planes != nil {
			planes[w] = newScreenPlanes(o.Objective, bt.m)
			bw.screen = planes[w]
		}
		return bw.tile
	})
}
