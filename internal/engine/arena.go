package engine

import (
	"sync"

	"trigene/internal/contingency"
	"trigene/internal/score"
)

// arena is one consumer's reusable scratch for the claim→score loop:
// the block walk's pair tables, x tile, counts and lane-table banks (the
// lanes pass's, the pair pass's and the seeded extension's), the cell
// columns (the k-way rank body's table, and the column scoring of lane
// tables), and the consumer's top-K.
// Arenas are pooled across runs so a Session serving repeated
// searches allocates nothing in the steady state beyond warm-up.
type arena struct {
	// yz, xt, xc, list, bank and laneScore are the block walk's scratch
	// for the block tuple in hand: per class the (i1, i2) pair tables of
	// its blocks b1 and b2, b1's SNPs in the lanes of one lane table per
	// i2; its x tile over the word tile in hand, the x lanes' pair counts
	// against each SNP of b1 ∪ b2, the lane list of those SNPs and the
	// (i1, i2) pairs the x SNPs meet, per class one lane table per pair,
	// and the scores of eight tables. The pair pass scores the yz tables
	// themselves into laneScore. The seeded extension uses the first of
	// them: the seed pair's table in yz[class][0], a list of the seed
	// pair, a chunk's counts against p.I and p.J in xc[0] and xc[1], and
	// its tables in bank[class][0], permuted into bank[class][1].
	yz        [2][]contingency.LaneTable
	xt        []uint64
	xc        []contingency.XCounts
	list      contingency.LaneList
	bank      [2][]contingency.LaneTable
	laneScore [contingency.Lanes]float64
	// valid is the valid lane count of each group of a scoring run: the
	// lanes pass's per pair of the list, the pair pass's and the seeded
	// extension's in valid[0].
	valid [contingency.Lanes * contingency.Lanes]uint8
	// ctrl/cases are the cell columns: the k-way rank body's table, or
	// the scratch score.ScoreColumns copies a lane's table into.
	ctrl, cases []int32
	// top accumulates this consumer's best candidates.
	top *TopK
	// scored counts the combinations this consumer evaluated.
	scored int64
	// rejected counts the lane groups scoring gave up on (the lanes
	// pass's and the seeded extension's against the top-K's bound, the
	// pair pass's against its group bound) since the last tile was
	// observed.
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
	for class := range a.bank {
		if len(a.bank[class]) < bs*bs {
			a.bank[class] = make([]contingency.LaneTable, bs*bs)
		}
		if len(a.yz[class]) < bs {
			a.yz[class] = make([]contingency.LaneTable, bs)
		}
	}
	a.sizeK(contingency.Cells)
}

// sizeK sizes the cell columns for tables of the given cell count.
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
