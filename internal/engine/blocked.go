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
// intra-block combination loops. One scheduler rank is one block triple
// (b0 <= b1 <= b2) of the block space.
func (s *Searcher) blockedRun(o *Options) (space, tiler, error) {
	sp, bt, err := s.blockSpace(o, 3, "blocked", o.Approach.String())
	if err != nil {
		return sp, nil, err
	}
	return sp, func(_ int, a *arena) tileFunc {
		return s.newBlockWorker(o, a, bt, nil).tile
	}, nil
}

// blockSpace is the space of the block walk at order 2 or 3, kind and
// approach naming it in the metrics: one rank per multiset of order blocks
// of contingency.Lanes SNPs (blockTuples), claimed one at a time, and
// restricted to o.Shard when set. Because block tuples partition the
// combination space, a Shard over their ranks is a disjoint sub-search
// whose results merge bit-exactly; the same is why no shared cursor over
// combination ranks can feed it. Its progress total is the combinations
// its ranks cover, counted only when a Progress callback will read it.
func (s *Searcher) blockSpace(o *Options, order int, kind, approach string) (space, blockTuples, error) {
	if o.Tiles != nil {
		return space{}, blockTuples{}, fmt.Errorf("engine: a shared tile cursor requires approach V2 at order 3, have %s", approach)
	}
	m := s.st.SNPs()
	bt := blockTuples{m: m, nb: combin.TripleBlocks(m, contingency.Lanes), order: order}
	sp := space{src: sched.NewSource(0, bt.ranks(), 1), order: order, kind: kind, approach: approach}
	if o.Shard != nil {
		sub, err := sp.src.Shard(*o.Shard)
		if err != nil {
			return sp, bt, err
		}
		b := sub.Bounds()
		sp.src, sp.covered, sp.blockSNPs = sub, &b, contingency.Lanes
	}
	if o.Progress != nil {
		b := sp.src.Bounds()
		sp.items = bt.below(b.Hi) - bt.below(b.Lo)
	}
	return sp, bt, nil
}

// blockTuples is the block walk's rank space over m SNPs in nb blocks of
// contingency.Lanes: a rank is a multiset of order blocks b_0 <= ... <=
// b_{order-1}, the colexicographic rank of the strict combination
// (b_0, b_1 + 1, ..., b_{order-1} + order - 1) over nb + order - 1 items.
type blockTuples struct{ m, nb, order int }

// ranks returns the number of block tuples.
func (bt blockTuples) ranks() int64 { return combin.Binomial(bt.nb+bt.order-1, bt.order) }

// unrank writes the blocks of a rank into dst, whose length is the order.
func (bt blockTuples) unrank(rank int64, dst []int) {
	combin.UnrankK(rank, bt.nb+bt.order-1, dst)
	for i := range dst {
		dst[i] -= i
	}
}

// combos counts the strict combinations whose i'th SNP lies in block
// blocks[i]: the product, over the distinct blocks, of C(lim, multiplicity)
// with lim the SNPs the block holds.
func (bt blockTuples) combos(blocks []int) int64 {
	n := int64(1)
	for i, j := 0, 0; i < len(blocks); i = j {
		for j = i + 1; j < len(blocks) && blocks[j] == blocks[i]; j++ {
		}
		n *= combin.Binomial(blockLim(blocks[i]*contingency.Lanes, contingency.Lanes, bt.m), j-i)
	}
	return n
}

// below counts the combinations of the block tuples ranked below r, for r
// up to ranks(). The tuples whose top block lies below block B rank below
// C(B+order-1, order) and hold every combination of the SNPs before B, so
// only those of r's own top block are counted one by one: at most nb of
// them at order 2.
func (bt blockTuples) below(r int64) int64 {
	k := bt.order
	top := combin.InvBinomial(r, k, bt.nb+k) // r's top block + k - 1, nb + k - 1 at ranks()
	n := combin.Binomial(min(bt.m, (top-k+1)*contingency.Lanes), k)
	var buf [3]int
	blocks := buf[:k]
	for rank := combin.Binomial(top, k); rank < r; rank++ {
		bt.unrank(rank, blocks)
		n += bt.combos(blocks)
	}
	return n
}

// blockWorker holds one worker's reusable state for the block walk: the
// lanes pass over block triples, or the pair pass over block pairs.
type blockWorker struct {
	lanesPass
	bt blockTuples
	// screen is a pair screen's per-SNP bests, which the pair pass
	// charges (nil otherwise).
	screen *screenPlanes
	// yzFor is the block pair (b1, b2) whose pair tables the arena's yz
	// bank holds for this run ({-1, -1}: none yet). It lives here, not in
	// the pooled arena, so no run reads another's tables.
	yzFor [2]int
	// listFor is the block pair and first slot of b1 whose lane list the
	// arena holds for this run ({-1, -1, -1}: none yet), kept here for the
	// same reason.
	listFor [3]int
}

// newBlockWorker builds a consumer of the block tuples bt over a pooled
// arena.
func (s *Searcher) newBlockWorker(o *Options, a *arena, bt blockTuples, screen *screenPlanes) *blockWorker {
	return &blockWorker{lanesPass: s.newLanesPass(o, a), bt: bt, screen: screen, yzFor: [2]int{-1, -1}, listFor: [3]int{-1, -1, -1}}
}

// lanesPass is what a consumer of the lanes pass holds: its options, its
// arena, sized for the pass, the split planes, the kernel (the Go bodies
// for V3F, the host's otherwise), the split form's plane popcounts it
// derives from, and the objective's own scoring of lane tables (nil:
// score.ScoreColumns, and always for V3F).
type lanesPass struct {
	o          *Options
	a          *arena
	split      *dataset.Split
	lanes      contingency.LaneKernel
	marg       *[2][][2]int32
	laneScorer score.LaneScorer
}

func (s *Searcher) newLanesPass(o *Options, a *arena) lanesPass {
	split := s.st.Split()
	a.sizeLanes(min(o.BlockWords, max(split.Words[0], split.Words[1])))
	p := lanesPass{o: o, a: a, split: split, lanes: contingency.LaneKernel{Oracle: o.Approach == V3Fused}, marg: s.marginals()}
	if o.Approach != V3Fused {
		p.laneScorer, _ = o.Objective.(score.LaneScorer)
	}
	return p
}

// nextGroup scores a run of lane groups in order, group g's tables
// ctrl[g] and cases[g], rows cells each (contingency.PairCells or Cells),
// valid[g] of their lanes valid, and returns the first it does not reject,
// its scores in the arena's laneScore, or len(valid). A LaneScorer is held
// to bound, at least the worker's top-K bound: a group it rejects would
// have been turned away lane by lane, so its offers are skipped and the
// list goes through the states it would have gone through. The bound
// moves only on an offer, so a caller that offers the group returned and
// calls again from the next, with the bound read afresh, makes the
// decisions a call per group would. A lane scored above the bound in a
// group that is not rejected is offered and turned away, as its full score
// would be. Without a LaneScorer the first group is scored in full and
// returned.
func (p *lanesPass) nextGroup(ctrl, cases []contingency.LaneTable, valid []uint8, rows int, bound float64) int {
	a := p.a
	if p.laneScorer == nil {
		if len(valid) > 0 {
			score.ScoreColumns(p.o.Objective, &a.laneScore, &ctrl[0], &cases[0], rows, int(valid[0]), a.ctrl, a.cases)
		}
		return 0
	}
	next := p.laneScorer.ScoreGroups(&a.laneScore, ctrl, cases, valid, rows, bound)
	a.rejected += int64(next)
	return next
}

// tile evaluates the block tuples with ranks in [t.Lo, t.Hi) and
// returns how many combinations it scored.
func (w *blockWorker) tile(t sched.Tile) (int64, error) {
	var scored int64
	var buf [3]int
	blocks := buf[:w.bt.order]
	for rank := t.Lo; rank < t.Hi; rank++ {
		w.bt.unrank(rank, blocks)
		if len(blocks) == 2 {
			scored += w.processBlockPair(blocks[0], blocks[1])
		} else {
			scored += w.processBlockLanes(blocks[0], blocks[1], blocks[2])
		}
	}
	w.a.scored += scored
	return scored, nil
}

// pairTables puts the pair tables of the block pair (b1, b2), b1 <= b2,
// into the arena's yz bank, once per class, unless it holds them already:
// yz[class][z] holds in lane l the table of (base1+l, base2+z), b1's SNP l
// against b2's SNP z, for the lanes of b1's SNPs that sort below it
// (PairLanes, b1's SNPs in the lanes). The lanes pass derives from them;
// the pair pass scores them.
func (w *blockWorker) pairTables(b1, b2 int) {
	if w.yzFor == [2]int{b1, b2} {
		return
	}
	const bs = contingency.Lanes
	split, a := w.split, w.a
	base1, base2 := b1*bs, b2*bs
	lim1, lim2 := blockLim(base1, bs, w.bt.m), blockLim(base2, bs, w.bt.m)
	for class, words := range split.Words {
		data := split.ClassPlaneData(class)
		for z := range lim2 {
			if valid := min(lim1, base2+z-base1); valid > 0 {
				w.lanes.PairLanes(&a.yz[class][z], data, words, base1, valid, base2+z, w.marg[class], int32(split.N[class]))
			}
		}
	}
	w.yzFor = [2]int{b1, b2}
}

// processBlockPair scores the pairs of the block pair (b1, b2), b1 <= b2:
// b1's SNP base1+l against b2's SNP base2+z wherever the first sorts
// below the second. Each z's two tables, left in the yz bank by
// pairTables, are scored where they lie under pairBound, and the pairs of
// a group scoring does not reject are offered — on a screen, charged to
// both SNPs — in lane order: a rejected group holds no pair that could
// enter the top-K or improve either SNP's best.
func (w *blockWorker) processBlockPair(b1, b2 int) int64 {
	const bs = contingency.Lanes
	a := w.a
	base1, base2 := b1*bs, b2*bs
	lim1, lim2 := blockLim(base1, bs, w.bt.m), blockLim(base2, bs, w.bt.m)
	w.pairTables(b1, b2)
	var scored int64
	for z := range lim2 {
		j, valid := base2+z, min(lim1, base2+z-base1)
		if valid <= 0 {
			continue
		}
		scored += int64(valid)
		a.valid[0] = uint8(valid)
		if w.nextGroup(a.yz[dataset.Control][z:z+1], a.yz[dataset.Case][z:z+1], a.valid[:1], contingency.PairCells, w.pairBound(base1, valid, j)) > 0 {
			continue
		}
		for l, sc := range a.laneScore[:valid] {
			if w.screen != nil {
				w.screen.charge(base1+l, j, sc)
			}
			a.top.Offer(Pair{I: base1 + l, J: j}.scored(sc))
		}
	}
	return scored
}

// pairBound is the score a group of pairs (x+l, j), l < valid, is given
// up on above: the loosest of the worker's top-K bound and, on a screen,
// the bests of j and of every x SNP of the group (+Inf while any of them
// is unseen). A pair scoring above all of them changes nothing: Offer
// turns it away, and keep acts only on a better score. Bounds only ever
// come down during a run, so one read at the group's start is at worst
// looser than a fresh one.
func (w *blockWorker) pairBound(x, valid, j int) float64 {
	b := w.a.top.bound()
	if p := w.screen; p != nil {
		b = p.loosest(j, j+1, p.loosest(x, x+valid, b))
	}
	return b
}

// processBlockLanes evaluates the block triple (b0, b1, b2) of blocks of
// contingency.Lanes SNPs, b0's SNPs in the lanes — the fused approaches'
// one loop, whatever the plane length. pairTables puts the (i1, i2) pair
// tables of b1 and b2 into the arena's yz bank, unless it holds them
// already: colexicographic ranks vary b0 fastest, so a tile's block
// triples come in runs that share (b1, b2). The arena's lane list names
// the SNPs of b1 ∪ b2 and the (i1, i2) pairs the x SNPs meet, and is
// rebuilt only when the block pair or its first slot changes (the slot
// moves only on the diagonal b0 = b1). Then, one class at a time, the
// class plane is walked in word tiles: the x tile is transposed once per
// word tile and goes through LaneKernel.Block, one call that counts it
// against every SNP of the list and every pair, into the pair's lane
// table in the class's bank — each set on the class's first tile (no
// class is empty: the store refuses such a dataset) and added to on the
// others, so nothing is zeroed — and on the class's last tile derives
// every pair's other 19 rows. After the cases, the pairs' tables are
// scored where they lie as one run of lane groups, pair (y, z) with
// min(nx, y − x) valid lanes, and scoring returns only at a group it does
// not reject: the Go work left is a valid count per pair and, per group
// offered, its offers and one more call from the group after.
//
// The class loop is outside the pair loop so that one pass's working set
// is one x tile and the y/z words of the two blocks next to one class's
// bank, of which a pass touches one table; FusedTileParams sizes the tile
// so that the x tile, which every pass reads, stays in the L1. The x SNPs
// are valid while they sort below i1, which only bites on the diagonal
// block b0 = b1.
func (w *blockWorker) processBlockLanes(b0, b1, b2 int) int64 {
	const bs = contingency.Lanes
	m := w.bt.m
	bw := w.o.BlockWords
	split, k, marg := w.split, w.lanes, w.marg
	a := w.a
	x, base1, base2 := b0*bs, b1*bs, b2*bs
	lim1, lim2 := blockLim(base1, bs, m), blockLim(base2, bs, m)
	nx := min(bs, base1+lim1-1-x) // x + lane < i1 <= base1+lim1-1
	if nx <= 0 {
		return 0
	}
	w.pairTables(b1, b2)
	l := &a.list
	if y0 := max(0, x+1-base1); w.listFor != [3]int{b1, b2, y0} {
		// SNP i of b1 has slot i of the list and of a.xc, and SNP i of b2
		// slot zs+i: the same slot on the diagonal b1 = b2.
		l.Reset()
		for i := range lim1 {
			l.AddSNP(base1 + i)
		}
		zs := 0
		if b1 != b2 {
			zs = lim1
			for i := range lim2 {
				l.AddSNP(base2 + i)
			}
		}
		for z := range lim2 {
			for y := y0; y < lim1 && base1+y < base2+z; y++ {
				l.AddPair(y, zs+z, z, y)
			}
		}
		w.listFor = [3]int{b1, b2, y0}
	}
	for class, words := range split.Words {
		data := split.ClassPlaneData(class) // plane g of SNP i at (2i+g)*words
		xmarg := marg[class][x : x+nx]
		for w0 := 0; w0 < words; w0 += bw {
			w1 := min(w0+bw, words)
			contingency.TransposeLanes(a.xt, data[x*2*words:(x+nx)*2*words], words, w0, w1)
			k.Block(a.bank[class], a.xc, l, a.xt, data, words, w0, w1, xmarg, a.yz[class])
		}
	}
	var scored int64
	valid := a.valid[:l.Pairs()]
	for j := range valid {
		y, _ := l.Pair(j)
		valid[j] = uint8(min(nx, y-x))
		scored += int64(valid[j])
	}
	ctrl, cases := a.bank[dataset.Control], a.bank[dataset.Case]
	for j := 0; ; j++ {
		if j += w.nextGroup(ctrl[j:], cases[j:], valid[j:], contingency.Cells, a.top.bound()); j == len(valid) {
			return scored
		}
		y, z := l.Pair(j)
		for lane, sc := range a.laneScore[:valid[j]] {
			a.top.Offer(Triple{I: x + lane, J: y, K: z}.scored(sc))
		}
	}
}

// blockLim returns how many SNPs of a block starting at base exist in a
// dataset of m SNPs.
func blockLim(base, bs, m int) int { return max(0, min(bs, m-base)) }
