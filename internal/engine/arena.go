package engine

import (
	"sync"

	"trigene/internal/contingency"
	"trigene/internal/score"
)

// arena is one consumer's reusable scratch for the claim→score loop:
// a contingency table (the flat path, and the pair walker's column
// scoring), the seeded extension's raw table and pair blocks, the fused
// loop's x tile, counts and lane-table banks, the pair walker's lane
// tables, the generic k-way cells, and the consumer's top-K.
// Arenas are pooled across runs so a Session serving repeated
// searches allocates nothing in the steady state beyond warm-up.
type arena struct {
	// tab is the flat path's single reusable table; taking its address
	// for the objective would otherwise heap-allocate per combination.
	tab contingency.Table
	// raw is the seeded extension's table of the triple in hand, in
	// (third, seed) cell order before it is permuted into tab.
	raw contingency.Table
	// block is one pair block per class: the seeded extension's cached
	// seed pair over the whole class plane.
	block [2]contingency.PairBlock
	// yz, xt, xc, pairs, bank and laneScore are the fused loop's scratch
	// for the block triple in hand: per class the (i1, i2) pair tables of
	// its blocks b1 and b2, b1's SNPs in the lanes of one lane table per
	// i2; its x tile over the word tile in hand, the XLanes counts against
	// each SNP of b1 ∪ b2, the (i1, i2) pairs the x SNPs meet, per class
	// one lane table per pair, and the scores of a pair's eight tables.
	yz        [2][]contingency.LaneTable
	xt        []uint64
	xc        []contingency.XCounts
	pairs     []lanePair
	bank      [2][]contingency.LaneTable
	laneScore [contingency.Lanes]float64
	// pairLanes are the pair walker's two lane tables, one per class: the
	// embedded tables of the eight pairs of a group in hand, scored into
	// laneScore.
	pairLanes [2]contingency.LaneTable
	// ctrl/cases are the generic k-way cells.
	ctrl, cases []int32
	// top accumulates this consumer's best candidates.
	top *TopK
	// scored counts the combinations this consumer evaluated.
	scored int64
	// rejected counts the lane groups scoring gave up on (the fused
	// loop's against the top-K's bound, the pair walker's against its
	// group bound) since the last tile was observed.
	rejected int64
}

var arenaPool = sync.Pool{New: func() interface{} { return new(arena) }}

// getArena returns a pooled arena reset for one consumer with a top-K
// of depth k under obj; the consumer sizes the rest of its scratch.
func getArena(obj score.Objective, k int) *arena {
	a := arenaPool.Get().(*arena)
	a.scored, a.rejected = 0, 0
	if a.top == nil {
		a.top = NewTopK(obj, k)
	} else {
		a.top.reset(obj, k)
	}
	return a
}

// sizeLanes sizes the fused loop's scratch for word tiles of up to tile
// words.
func (a *arena) sizeLanes(tile int) {
	const bs = contingency.Lanes
	if n := contingency.LaneTileWords(tile); cap(a.xt) < n {
		a.xt = make([]uint64, n)
	}
	if len(a.xc) < 2*bs {
		a.xc = make([]contingency.XCounts, 2*bs)
	}
	if cap(a.pairs) < bs*bs {
		a.pairs = make([]lanePair, 0, bs*bs)
	}
	for class := range a.bank {
		if len(a.bank[class]) < bs*bs {
			a.bank[class] = make([]contingency.LaneTable, bs*bs)
		}
		if len(a.yz[class]) < bs {
			a.yz[class] = make([]contingency.LaneTable, bs)
		}
	}
}

// sizeK sizes the k-way cells for tables of the given cell count.
func (a *arena) sizeK(cells int) {
	if cap(a.ctrl) < cells {
		a.ctrl = make([]int32, cells)
		a.cases = make([]int32, cells)
	}
	a.ctrl, a.cases = a.ctrl[:cells], a.cases[:cells]
}

// release returns the arena to the pool. The caller must have copied
// or merged everything it needs first (the top-K contents are reused
// by the next consumer).
func (a *arena) release() { arenaPool.Put(a) }
