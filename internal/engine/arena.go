package engine

import (
	"sync"

	"trigene/internal/contingency"
	"trigene/internal/score"
)

// arena is one consumer's reusable scratch for the claim→score loop:
// a contingency table (flat paths), a bank of block tables (blocked
// paths), the generic k-way buffers, and the consumer's top-K heap.
// Arenas are pooled across runs so a Session serving repeated
// searches allocates nothing in the steady state beyond warm-up.
type arena struct {
	// tab is the flat paths' single reusable table; taking its address
	// for the objective would otherwise heap-allocate per combination.
	tab contingency.Table
	// tables is the blocked paths' BS^3 table bank.
	tables []contingency.Table
	// pair is the fused paths' cached pair block (planes and their
	// popcounts for one (i1, i2) word tile).
	pair contingency.PairBlock
	// whole is one pair block per class over the whole class plane: the
	// seeded extension's cached seed pair, the short-plane loop's
	// (i1, i2).
	whole [2]contingency.PairBlock
	// xt, lane and laneScore are the rest of the short-plane loop's
	// scratch: per class the x tile of the 8-SNP chunk in hand and the
	// lane table of its last pass, and the scores of the eight tables.
	xt        [2][]uint64
	lane      [2]contingency.LaneTable
	laneScore [contingency.Lanes]float64
	// comb/ctrl/cases are the generic k-way buffers.
	comb        []int
	ctrl, cases []int32
	// top accumulates this consumer's best candidates.
	top *topK
	// scored counts the combinations this consumer evaluated.
	scored int64
}

var arenaPool = sync.Pool{New: func() interface{} { return new(arena) }}

// getArena returns a pooled arena reset for one consumer: a top-K of
// depth k under obj and (for the blocked paths) a bank of tables
// block tables.
func getArena(obj score.Objective, k, tables int) *arena {
	a := arenaPool.Get().(*arena)
	a.scored = 0
	if a.top == nil {
		a.top = newTopK(obj, k)
	} else {
		a.top.reset(obj, k)
	}
	if cap(a.tables) < tables {
		a.tables = make([]contingency.Table, tables)
	}
	a.tables = a.tables[:tables]
	return a
}

// sizeLanes sizes the short-plane loop's scratch for class planes of the
// given lengths; oracle pins the pure-Go bodies.
func (a *arena) sizeLanes(words [2]int, oracle bool) {
	for class, n := range words {
		a.whole[class].Init(n, oracle)
		tile := contingency.LaneTileWords(n)
		if cap(a.xt[class]) < tile {
			a.xt[class] = make([]uint64, tile)
		}
		a.xt[class] = a.xt[class][:tile]
	}
}

// sizeK grows the arena's k-way buffers for the given order.
func (a *arena) sizeK(order, cells int) {
	if cap(a.comb) < order {
		a.comb = make([]int, order)
	}
	a.comb = a.comb[:order]
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
