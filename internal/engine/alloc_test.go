package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/obs"
	"trigene/internal/sched"
	"trigene/internal/score"
)

// TestHotPathAllocs proves the steady-state claim→score loop performs
// zero heap allocations per scored combination on the approaches the
// paper's throughput story rests on: V2 (the k-way rank body at order
// 3), V4 (blocked lane-vectorized kernel) and the fused pair-AND variants.
// The per-consumer arenas (pooled contingency tables, the pair-plane
// buffer, reused top-K heaps) are what make this hold. The guarantee
// must survive instrumentation, so every approach is probed twice:
// without metrics and with a live registry attached (counters are
// resolved at construction; the per-tile update is atomic adds only),
// and a scrape of that registry must then show
// trigene_engine_tiles_total at exactly the tiles the loop processed.
// The screened search's index-remap layer (Searcher.Subset) must
// preserve the guarantee — its sub-searcher is probed alongside the
// full one, since stage 2 runs the same hot loops over survivors. The
// fused approaches run one loop whatever the plane length — x tile,
// counts, lane-table banks and the score vector all in the pooled arena
// — and it is probed on class planes of several word tiles with a ragged
// last one ("wide"), at 4-word planes ("short", and "full" at 5), at
// ragged 2-word planes with a last block of one SNP ("ragged") and
// through a subset remap. V4F crosses into assembly there with pointers
// to arena memory (the lanes pass's counts and derive, the run's pair
// tables, K2's lane scoring); the stubs are //go:noescape so nothing is
// moved to the heap, which for the lanes pass and the lane scoring is
// pinned separately at the end, on stack tables. The engine's other tile
// loops are held to the same standard on the same searchers: the pair
// pass, of a pair search and with the screen's planes, on V3F and V4F (its
// marginals live on the Searcher, its pair tables and their scores in the
// arena, passed to //go:noescape stubs), the seeded extension (its x
// tile, counts and lane tables are the lanes pass's, sized in the worker
// arena by sizeLanes), and the k-way rank body at orders 4, 5 and 7.
func TestHotPathAllocs(t *testing.T) {
	mx := randomMatrix(200, 32, 320)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(randomMatrix(203, 32, 17000))
	if err != nil {
		t.Fatal(err)
	}
	short, err := New(randomMatrix(204, 40, 500))
	if err != nil {
		t.Fatal(err)
	}
	ragged, err := New(randomMatrix(205, 13, 130))
	if err != nil {
		t.Fatal(err)
	}
	survivors := make([]int, 0, 24)
	for c := 0; c < 32; c++ {
		if c%4 != 1 { // 24 survivors of 32, with gaps to exercise the remap
			survivors = append(survivors, c)
		}
	}
	sub, err := s.Subset(survivors)
	if err != nil {
		t.Fatal(err)
	}
	searchers := []struct {
		name string
		s    *Searcher
	}{{"full", s}, {"subset", sub}, {"wide", wide}, {"short", short}, {"ragged", ragged}}
	for _, probe := range searchers {
		for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
			for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
				h, err := probe.s.NewHotLoop(Options{Approach: a, TopK: 4, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				tiles := h.Tiles()
				if tiles < 2 {
					t.Fatalf("%s/%v: space too small to probe (%d tiles)", probe.name, a, tiles)
				}
				// Warm-up: grow the top-K heap to depth and fault in the scratch.
				for i := int64(0); i < tiles; i++ {
					h.Process(h.Tile(i))
				}
				var idx int64
				allocs := testing.AllocsPerRun(32, func() {
					h.Process(h.Tile(idx % tiles))
					idx++
				})
				if allocs != 0 {
					t.Errorf("%s/%v (metrics=%v): %.1f allocs per tile in steady state, want 0",
						probe.name, a, reg != nil, allocs)
				}
				h.Close()
				if reg != nil {
					var expo strings.Builder
					if _, err := reg.WriteTo(&expo); err != nil {
						t.Fatal(err)
					}
					want := fmt.Sprintf("trigene_engine_tiles_total{approach=%q} %d\n", a.String(), tiles+idx)
					if !strings.Contains(expo.String(), want) {
						t.Errorf("%s/%v: scrape of the live registry lacks %q", probe.name, a, want)
					}
				}
			}
		}
		o, err := Options{TopK: 4}.withDefaults(probe.s.st.Samples())
		if err != nil {
			t.Fatal(err)
		}
		m := probe.s.st.SNPs()
		for _, ap := range []Approach{V3Fused, V4Fused} {
			po := o
			po.Approach = ap
			_, bt, err := probe.s.blockSpace(&po, 2, "pair", "pair")
			if err != nil {
				t.Fatal(err)
			}
			for name, screen := range map[string]*screenPlanes{"pair": nil, "pair screen": newScreenPlanes(o.Objective, m)} {
				a := getArena(o.Objective, o.TopK)
				steadyStateAllocs(t, fmt.Sprintf("%s/%s/%v", probe.name, name, ap), bt.ranks(), probe.s.newBlockWorker(&po, a, bt, screen).tile)
				a.release()
			}
		}

		// Seeds that overlap in a SNP, with a subset mask: every skip rule
		// runs. Tiles of 37 ranks start and end mid-seed.
		seeds := []Pair{{1, 5}, {5, m - 2}, {0, m - 1}}
		inSubset := make([]bool, m)
		inSubset[1], inSubset[5], inSubset[7] = true, true, true
		a := getArena(o.Objective, o.TopK)
		sw := probe.s.newSeededWorker(&o, a, seeds, seedRanks(seeds, m), inSubset)
		steadyStateAllocs(t, probe.name+"/seeded", int64(len(seeds)*m), sw.tile)
		a.release()
	}

	// The k-way rank body past order 3, where a combination's planes
	// outnumber what escape analysis keeps on the stack unasked, and at
	// order 7, where its products are the most (its combinations drawn
	// from the first 11 SNPs).
	kway, err := New(randomMatrix(207, 20, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ order, m int }{{4, 20}, {5, 20}, {7, 11}} {
		o, err := Options{TopK: 4}.withDefaults(kway.st.Samples())
		if err != nil {
			t.Fatal(err)
		}
		a := getArena(o.Objective, o.TopK)
		a.sizeK(contingency.CellsK(c.order))
		w := &kWorker{split: kway.Split(), m: c.m, order: c.order, a: a, scorer: o.Objective}
		steadyStateAllocs(t, fmt.Sprintf("kway/order%d", c.order), combin.Binomial(c.m, c.order), w.tile)
		a.release()
	}

	// The fused loop's stubs, on a lane list and tables that live on the
	// stack.
	split := short.Split()
	words := split.Words[0]
	data := split.ClassPlaneData(0)
	marg := short.marginals()[0]
	xt := make([]uint64, contingency.LaneTileWords(words))
	contingency.TransposeLanes(xt, data[:2*contingency.Lanes*words], words, 0, words)
	k2 := score.NewK2(2 * short.st.Samples()) // both classes get the control table
	var k contingency.LaneKernel
	if allocs := testing.AllocsPerRun(32, func() {
		var bank, yz [1]contingency.LaneTable
		var xc [2]contingency.XCounts
		var l contingency.LaneList
		var scores [contingency.Lanes]float64
		valid := [1]uint8{contingency.Lanes}
		k.PairLanes(&yz[0], data, words, 8, 1, 9, marg, int32(split.N[0]))
		l.AddSNP(8)
		l.AddSNP(9)
		l.AddPair(0, 1, 0, 0)
		k.Block(bank[:], xc[:], &l, xt, data, words, 0, words, marg[:contingency.Lanes], yz[:])
		k2.ScoreGroups(&scores, bank[:], bank[:], valid[:], contingency.Cells, math.Inf(1))
		if scores[0] == 0 {
			t.Fatal("no score")
		}
	}); allocs != 0 {
		t.Errorf("lanes pass + lane scoring on stack tables: %.1f allocs, want 0", allocs)
	}
}

// steadyStateAllocs cuts [0, ranks) into tiles of 37 ranks, runs them
// all once to warm the consumer (top-K at depth, scratch faulted in),
// then demands zero allocations per tile.
func steadyStateAllocs(t *testing.T, name string, ranks int64, tile tileFunc) {
	t.Helper()
	const grain = 37
	tiles := (ranks + grain - 1) / grain
	at := func(i int64) sched.Tile {
		return sched.Tile{Lo: i * grain, Hi: min((i+1)*grain, ranks)}
	}
	for i := int64(0); i < tiles; i++ {
		tile(at(i))
	}
	var idx int64
	if allocs := testing.AllocsPerRun(32, func() {
		tile(at(idx % tiles))
		idx++
	}); allocs != 0 {
		t.Errorf("%s: %.1f allocs per tile in steady state, want 0", name, allocs)
	}
}

// TestHotLoopMatchesRun checks the probe scores the same space as the
// real worker pool.
func TestHotLoopMatchesRun(t *testing.T) {
	mx := randomMatrix(201, 18, 150)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
		want, err := s.Run(Options{Approach: a, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.NewHotLoop(Options{Approach: a, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < h.Tiles(); i++ {
			h.Process(h.Tile(i))
		}
		if h.Scored() != want.Stats.Combinations {
			t.Errorf("%v: probe scored %d, run %d", a, h.Scored(), want.Stats.Combinations)
		}
		top := h.w.a.top
		if len(top.items) != len(want.TopK) {
			t.Fatalf("%v: probe top-K %d entries, run %d", a, len(top.items), len(want.TopK))
		}
		for i := range top.items {
			if top.items[i] != want.TopK[i] {
				t.Errorf("%v: probe TopK[%d] = %+v, run %+v", a, i, top.items[i], want.TopK[i])
			}
		}
		h.Close()
	}
}

// TestShardedRunsMatchFull is the engine-level shard parity property:
// every approach, sharded any way, merges back to the full result —
// including V3F/V4F, whose shards slice the block-triple space.
func TestShardedRunsMatchFull(t *testing.T) {
	mx := randomMatrix(202, 26, 180)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
		full, err := s.Run(Options{Approach: a, TopK: 7})
		if err != nil {
			t.Fatal(err)
		}
		wantBS := 0 // the block size the shards' ranks are cut at
		if a.fused() {
			wantBS = contingency.Lanes
		}
		obj := score.NewK2(mx.Samples())
		for _, count := range []int{2, 3, 5} {
			merged := NewTopK(obj, 7)
			var combos int64
			for i := 0; i < count; i++ {
				res, err := s.Run(Options{Approach: a, TopK: 7,
					Shard: &sched.Shard{Index: i, Count: count}})
				if err != nil {
					t.Fatalf("%v shard %d/%d: %v", a, i, count, err)
				}
				if res.Space == nil {
					t.Fatalf("%v shard %d/%d: no Space recorded", a, i, count)
				}
				if res.BlockSNPs != wantBS {
					t.Errorf("%v shard: BlockSNPs = %d, want %d", a, res.BlockSNPs, wantBS)
				}
				combos += res.Stats.Combinations
				for _, c := range res.TopK {
					merged.Offer(c)
				}
			}
			if combos != full.Stats.Combinations {
				t.Errorf("%v %d shards cover %d combinations, full %d", a, count, combos, full.Stats.Combinations)
			}
			got := merged.List()
			if len(got) != len(full.TopK) {
				t.Fatalf("%v %d shards merge to %d candidates, full %d", a, count, len(got), len(full.TopK))
			}
			for i := range got {
				if got[i] != full.TopK[i] {
					t.Errorf("%v %d shards: TopK[%d] = %+v, full %+v", a, count, i, got[i], full.TopK[i])
				}
			}
		}
	}
}
