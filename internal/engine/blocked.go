package engine

import (
	"fmt"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
	"trigene/internal/score"
)

// blockedRun is the lanes pass (V3F/V4F), the blocked loop of
// Algorithm 1: SNPs are grouped into blocks of BS = contingency.Lanes, one
// lane group, the sample dimension is walked in tiles of BlockWords 64-bit
// words, and each worker holds a private bank of BS^2 lane tables per
// class, so the tile data and the tables stay L1-resident across the
// intra-block combination loops.
//
// One scheduler rank is one block triple (b0 <= b1 <= b2), via the
// bijection between multisets of size 3 over nb blocks and strict
// triples over nb+2 items. Because block triples partition the
// combination space, a Shard over block-triple ranks is a disjoint
// sub-search whose results merge bit-exactly. The same is why no shared
// cursor over combination ranks can feed it.
func (s *Searcher) blockedRun(o *Options) (space, tiler, error) {
	if o.Tiles != nil {
		return space{}, nil, fmt.Errorf("engine: a shared tile cursor requires approach V2, have %v", o.Approach)
	}
	nb, src := s.blockSpace()
	sp := space{src: src, order: 3, kind: "blocked", approach: o.Approach.String()}
	if o.Shard != nil {
		sub, err := src.Shard(*o.Shard)
		if err != nil {
			return sp, nil, err
		}
		b := sub.Bounds()
		sp.src, sp.covered, sp.blockSNPs = sub, &b, contingency.Lanes
	}
	if o.Progress != nil {
		sp.items = s.blockSpaceCombos(sp.src, nb)
	}
	split := s.st.Split()
	return sp, func(_ int, a *arena) tileFunc {
		return newBlockWorker(s, o, a, split, nb).tile
	}, nil
}

// blockSpace returns the run's block count and the block-triple space:
// multiset triples over nb blocks of contingency.Lanes SNPs, claimed one
// at a time.
func (s *Searcher) blockSpace() (nb int, src sched.Source) {
	nb = combin.TripleBlocks(s.st.SNPs(), contingency.Lanes)
	return nb, sched.NewSource(0, combin.Triples(nb+2), 1)
}

// blockSpaceCombos counts the combinations covered by a range of
// block-triple ranks — the progress denominator of a (possibly
// sharded) blocked run. One O(1) count per block triple.
func (s *Searcher) blockSpaceCombos(src sched.Source, nb int) int64 {
	b := src.Bounds()
	if b.Lo == 0 && b.Hi == combin.Triples(nb+2) {
		return combin.Triples(s.st.SNPs())
	}
	var total int64
	for rank := b.Lo; rank < b.Hi; rank++ {
		a, bb, c := combin.UnrankTriple(rank, nb+2)
		total += s.blockTripleCombos(a, bb-1, c-2)
	}
	return total
}

// blockTripleCombos counts the strict combinations (i0 < i1 < i2) with
// i0 in block b0, i1 in block b1, i2 in block b2 (b0 <= b1 <= b2).
func (s *Searcher) blockTripleCombos(b0, b1, b2 int) int64 {
	const bs = contingency.Lanes
	m := s.st.SNPs()
	l0 := int64(blockLim(b0*bs, bs, m))
	l1 := int64(blockLim(b1*bs, bs, m))
	l2 := int64(blockLim(b2*bs, bs, m))
	switch {
	case b0 == b1 && b1 == b2:
		return l0 * (l0 - 1) * (l0 - 2) / 6
	case b0 == b1:
		return l0 * (l0 - 1) / 2 * l2
	case b1 == b2:
		return l0 * (l1 * (l1 - 1) / 2)
	default:
		return l0 * l1 * l2
	}
}

// blockWorker holds one worker's reusable state for the lanes pass.
type blockWorker struct {
	s     *Searcher
	o     *Options
	split *dataset.Split
	nb    int
	a     *arena
	// lanes runs the fused loop's primitives: the Go bodies for V3F, the
	// host's for V4F. marg is the split form's plane popcounts they
	// derive from.
	lanes contingency.LaneKernel
	marg  *[2][][2]int32
	// laneScorer is the objective's own scoring of the fused loop's lane
	// tables (nil: score.ScoreColumns).
	laneScorer score.LaneScorer
	// yzFor is the block pair (b1, b2) whose pair tables the arena's yz
	// bank holds for this run ({-1, -1}: none yet). It lives here, not in
	// the pooled arena, so no run reads another's tables.
	yzFor [2]int
}

// newBlockWorker builds a consumer over a pooled arena, sized for the
// lanes pass, where V3F pins the pure-Go bodies and V4F takes the host's
// tuned ones.
func newBlockWorker(s *Searcher, o *Options, a *arena, split *dataset.Split, nb int) *blockWorker {
	w := &blockWorker{s: s, o: o, split: split, nb: nb, a: a, yzFor: [2]int{-1, -1}}
	a.sizeLanes(min(o.BlockWords, max(split.Words[0], split.Words[1])))
	w.lanes.Oracle, w.marg = o.Approach == V3Fused, s.marginals()
	if o.Approach != V3Fused {
		w.laneScorer, _ = o.Objective.(score.LaneScorer)
	}
	return w
}

// tile evaluates the block triples with ranks in [t.Lo, t.Hi) and
// returns how many combinations it scored.
func (w *blockWorker) tile(t sched.Tile) (int64, error) {
	var scored int64
	for rank := t.Lo; rank < t.Hi; rank++ {
		// Unrank the multiset triple: strict triple over nb+2 minus the
		// staircase offsets.
		a, b, c := combin.UnrankTriple(rank, w.nb+2)
		scored += w.processBlockLanes(a, b-1, c-2)
	}
	w.a.scored += scored
	return scored, nil
}

// lanePair is one (i1, i2) the block triple's eight x SNPs meet: its two
// SNPs and how many of the lanes sort below i1. Its tables are the two
// lane tables at its position in the arena's banks.
type lanePair struct{ y, z, valid int }

// processBlockLanes evaluates the block triple (b0, b1, b2) of blocks of
// contingency.Lanes SNPs, b0's SNPs in the lanes — the fused approaches'
// one loop, whatever the plane length. Once per class, PairLanes puts the
// (i1, i2) pair tables of b1 and b2 into the arena's yz bank, b1's SNPs in
// the lanes against each i2 of b2 — unless the bank holds them already:
// colexicographic ranks vary b0 fastest, so a tile's block triples come in
// runs that share (b1, b2). Then, one class at a time, the class
// plane is walked in word tiles: the x tile is transposed once per word
// tile, XLanes counts it against every SNP of b1 ∪ b2 and TripleLanes
// against every (i1, i2), into the pair's lane table in the class's bank
// — each sets on the class's first tile (no class is empty: the store
// refuses such a dataset) and adds on the others, so nothing is zeroed.
// The pass over the class's last tile completes a pair's eight counted
// rows, and Derive the other 19 there and then; the cases' completes the
// pair's two tables, which are scored while they are hot.
//
// The class loop is outside the pair loop so that one pass's working set
// is one x tile and the y/z words of the two blocks next to one class's
// bank, of which a pass touches one table; FusedTileParams sizes the tile
// so that the x tile, which every pass reads, stays in the L1. The x SNPs
// are valid while they sort below i1, which only bites on the diagonal
// block b0 = b1.
func (w *blockWorker) processBlockLanes(b0, b1, b2 int) int64 {
	const bs = contingency.Lanes
	m := w.s.st.SNPs()
	bw := w.o.BlockWords
	split, k, marg := w.split, w.lanes, w.marg
	a := w.a
	x, base1, base2 := b0*bs, b1*bs, b2*bs
	lim1, lim2 := blockLim(base1, bs, m), blockLim(base2, bs, m)
	nx := min(bs, base1+lim1-1-x) // x + lane < i1 <= base1+lim1-1
	if nx <= 0 {
		return 0
	}
	// SNP i of b1 ∪ b2 has XLanes counts a.xc[i-base1] in b1, and
	// a.xc[zs+i-base2] in b2: the same slot on the diagonal b1 = b2.
	zs := lim1
	if b1 == b2 {
		zs = 0
	}
	if w.yzFor != [2]int{b1, b2} {
		for class, words := range split.Words {
			data := split.ClassPlaneData(class)
			for z := 0; z < lim2; z++ {
				k.PairLanes(&a.yz[class][z], data, words, base1, lim1, base2+z, marg[class], int32(split.N[class]))
			}
		}
		w.yzFor = [2]int{b1, b2}
	}
	pairs := a.pairs[:0]
	for gi2 := base2; gi2 < base2+lim2; gi2++ {
		for gi1 := max(base1, x+1); gi1 < base1+lim1 && gi1 < gi2; gi1++ {
			pairs = append(pairs, lanePair{y: gi1, z: gi2, valid: min(nx, gi1-x)})
		}
	}
	var scored int64
	for class, words := range split.Words {
		bank := a.bank[class][:len(pairs)]
		data := split.ClassPlaneData(class) // plane g of SNP i at (2i+g)*words
		xmarg := marg[class][x : x+nx]
		for w0 := 0; w0 < words; w0 += bw {
			w1 := min(w0+bw, words)
			contingency.TransposeLanes(a.xt, data[x*2*words:(x+nx)*2*words], words, w0, w1)
			for i := range a.xc[:max(lim1, zs+lim2)] {
				snp := base1 + i
				if i >= lim1 {
					snp = base2 + i - zs
				}
				k.XLanes(&a.xc[i], a.xt, data, words, snp, w0, w1, w0 > 0)
			}
			for j, p := range pairs {
				k.TripleLanes(&bank[j], a.xt, data, words, p.y, p.z, w0, w1, w0 > 0)
				if w1 < words {
					continue
				}
				y, z := p.y-base1, p.z-base2
				k.Derive(&bank[j], &a.xc[y], &a.xc[zs+z], xmarg, &a.yz[class][z], y)
				if class == dataset.Case {
					w.scoreLanes(x, j, p)
					scored += int64(p.valid)
				}
			}
		}
	}
	return scored
}

// scoreLanes scores the two lane tables of the block triple's j'th pair
// where they lie and offers the valid lanes' triples (x + lane, p.y, p.z). A
// LaneScorer is bounded by the worker's top-K: a group it rejects would
// have been turned away lane by lane, so its offers are skipped and the
// list goes through the states it would have gone through. A lane scored
// above the bound in a group that is not rejected is offered and turned
// away, as its full score would be.
func (w *blockWorker) scoreLanes(x, j int, p lanePair) {
	a := w.a
	ctrl, cases := &a.bank[dataset.Control][j], &a.bank[dataset.Case][j]
	if w.laneScorer != nil {
		if w.laneScorer.ScoreLanes(&a.laneScore, ctrl, cases, contingency.Cells, p.valid, a.top.bound()) {
			a.rejected++
			return
		}
	} else {
		score.ScoreColumns(w.o.Objective, &a.laneScore, ctrl, cases, contingency.Cells, p.valid, &a.tab)
	}
	for lane := 0; lane < p.valid; lane++ {
		a.top.Offer(Triple{I: x + lane, J: p.y, K: p.z}.scored(a.laneScore[lane]))
	}
}

// blockLim returns how many SNPs of a block starting at base exist in a
// dataset of m SNPs.
func blockLim(base, bs, m int) int {
	if base >= m {
		return 0
	}
	if base+bs > m {
		return m - base
	}
	return bs
}
