package engine

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/obs"
	"trigene/internal/sched"
	"trigene/internal/score"
)

// shortPlaneShapes are the datasets the fused loop's block handling is
// checked on where every class plane is one word tile: fewer SNPs than
// one vector has lanes, SNP counts that are no multiple of the block,
// enough SNPs for three distinct blocks (b0 < b1 < b2), classes of
// exactly one word with and without padding and of a few ragged words,
// and a class of a single sample.
func shortPlaneShapes() []edgeShape {
	oneCase := randomMatrix(160, 11, 130)
	for j := 0; j < 130; j++ {
		oneCase.SetPhen(j, dataset.Control)
	}
	oneCase.SetPhen(77, dataset.Case)
	return []edgeShape{
		{"5 SNPs x 63", randomMatrix(161, 5, 63)},
		{"8 SNPs x 128, pad-free words", randomMatrix(162, 8, 128)},
		{"13 SNPs x 130", randomMatrix(163, 13, 130)},
		{"14 SNPs x 500", randomMatrix(164, 14, 500)},
		{"19 SNPs x 200, three blocks", randomMatrix(169, 19, 200)},
		{"11 SNPs x 130, one case", oneCase},
	}
}

// tiledShapes are the datasets its word-tile handling is checked on, at
// the 8-word tile the tests force on them: class planes of exactly one
// tile, of one word more, of two and a half tiles with a padded last
// word, and one class of one tile next to one of three.
func tiledShapes() []edgeShape {
	classes := func(seed int64, m, controls, cases int) *dataset.Matrix {
		mx := randomMatrix(seed, m, controls+cases)
		for j := 0; j < controls+cases; j++ {
			phen := dataset.Control
			if j >= controls {
				phen = dataset.Case
			}
			mx.SetPhen(j, uint8(phen))
		}
		return mx
	}
	return []edgeShape{
		{"9 SNPs x 512+512, one tile", classes(165, 9, 512, 512)},
		{"10 SNPs x 520+576, one word over", classes(166, 10, 520, 576)},
		{"13 SNPs x 1250+1270, two and a half tiles", classes(167, 13, 1250, 1270)},
		{"11 SNPs x 500+1500, one tile and three", classes(168, 11, 500, 1500)},
	}
}

// TestLaneRejectionParityWithTies: K2's lane scoring gives up on a group
// of tables once none of them can enter the worker's top-K, and a search
// must report what it reported when every table was scored in full. The
// dataset has a strong planted triple (2, 9, 14), and SNPs 3, 10 and 15
// are copies of 2, 9 and 14 that sort where their originals do, so a
// triple and each triple that swaps copies in have the same tables and
// the same score bits: eight triples tie for first place and ties run all
// the way down the ranking, the tenth place included. Where the bound
// bites, a table scoring exactly the bound must still be offered: (2, 10,
// 14) is met after (3, 9, 14) — a later (i1, i2) pair of the same x chunk
// — and at K = 4 it has to displace it on the triple order alone (a body
// that stopped at sum >= bound passes K = 1 and 10 and fails there). V4F
// (bounded) must equal V3F (scored in full through ScoreColumns) and a
// brute force over BuildReference, sharded 1/3/7 ways on 1 and 4
// workers, for K = 1, 4 and 10, and its rejection counter must show that
// groups were rejected. The seeded extension is held to the same on the
// same dataset, against the brute force over seededReference's set: its
// seeds pair the planted SNPs and their copies, so thirds that swap a
// copy in tie within one seed's run and across seeds, and a subset mask
// and overlapping seeds make lanes of its groups skipped ones.
func TestLaneRejectionParityWithTies(t *testing.T) {
	const m = 28
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: m, Samples: 600, Seed: 25, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &dataset.Interaction{SNPs: [3]int{2, 9, 14}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, snp := range []int{2, 9, 14} {
		copy(mx.Row(snp+1), mx.Row(snp))
	}
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	rank := func(offer func(func(i, j, k int))) []Candidate {
		ref := NewTopK(obj, int(combin.Triples(m)))
		offer(func(i, j, k int) {
			tab := contingency.BuildReference(mx, i, j, k)
			ref.Offer(Triple{i, j, k}.scored(obj.Score(&tab)))
		})
		return ref.List()
	}
	ranking := rank(func(f func(i, j, k int)) { combin.ForEachTriple(m, f) })
	if planted := (Triple{2, 9, 14}); ranking[0].triple() != planted || ranking[7].Score != ranking[0].Score {
		t.Fatalf("fixture: best %+v, eighth %+v; want %v tied eight ways", ranking[0], ranking[7], planted)
	}
	seeds := []Pair{{2, 9}, {3, 10}, {2, 10}, {3, 9}, {0, 27}, {7, 20}, {2, 9}, {14, 22}}
	inSubset := make([]bool, m)
	for _, snp := range []int{2, 9, 15, 20, 22} {
		inSubset[snp] = true
	}
	seededRanking := rank(func(f func(i, j, k int)) {
		for tr := range seededReference(m, seeds, inSubset) {
			f(tr.I, tr.J, tr.K)
		}
	})
	arms := []struct {
		name    string
		ranking []Candidate
		label   string // the engine series its runs record under; "": the approach
		run     func(Options) (*Result, error)
	}{
		{"exhaustive", ranking, "", s.Run},
		{"seeded", seededRanking, "seeded", func(o Options) (*Result, error) { return s.RunSeeded(seeds, inSubset, o) }},
	}
	for _, arm := range arms {
		for _, k := range []int{1, 4, 10} {
			if arm.ranking[k-1].Score != arm.ranking[k].Score {
				t.Fatalf("%s fixture: places %d and %d do not tie (%v, %v)", arm.name, k, k+1, arm.ranking[k-1].Score, arm.ranking[k].Score)
			}
			want := arm.ranking[:k]
			for _, shards := range []int{1, 3, 7} {
				for _, workers := range []int{1, 4} {
					for _, a := range []Approach{V3Fused, V4Fused} {
						name := fmt.Sprintf("%s K=%d %d shards %d workers %v", arm.name, k, shards, workers, a)
						reg := obs.NewRegistry()
						merged := NewTopK(obj, k)
						var combos int64
						for i := 0; i < shards; i++ {
							o := Options{Approach: a, TopK: k, Workers: workers, Metrics: reg}
							if shards > 1 {
								o.Shard = &sched.Shard{Index: i, Count: shards}
							}
							res, err := arm.run(o)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							combos += res.Stats.Combinations
							for _, c := range res.TopK {
								merged.Offer(c)
							}
						}
						if combos != int64(len(arm.ranking)) {
							t.Errorf("%s: %d combinations, want %d", name, combos, len(arm.ranking))
						}
						got := merged.List()
						if len(got) != len(want) {
							t.Fatalf("%s: %d candidates, want %d", name, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("%s: TopK[%d] = %+v, reference %+v", name, i, got[i], want[i])
							}
						}
						label := arm.label
						if label == "" {
							label = a.String()
						}
						rm := resolveRunMetrics(reg, label)
						switch rejected := rm.rejected.Value(); {
						case a == V4Fused && rejected == 0:
							t.Errorf("%s: no lane group was rejected", name)
						case a == V3Fused && rejected != 0:
							t.Errorf("%s: %d lane groups rejected without a bound", name, rejected)
						}
					}
				}
			}
		}
	}
}

// groupByGroup is K2 whose lane scoring takes a run one group at a time,
// through ScoreLanesStop, the way the lanes pass scored before it handed
// K2 whole runs, and counts the groups it rejects.
type groupByGroup struct {
	*score.K2Objective
	rejected *atomic.Int64
}

func (o groupByGroup) ScoreGroups(dst *[contingency.Lanes]float64, ctrl, cases []contingency.LaneTable, valid []uint8, rows int, bound float64) int {
	for g, v := range valid {
		if o.ScoreLanesStop(dst, &ctrl[g], &cases[g], rows, int(v), bound) == 0 {
			return g
		}
		o.rejected.Add(1)
	}
	return len(valid)
}

// TestLaneRejectionCountMatchesGroupByGroup: the lanes pass scores a
// block triple's pairs as runs of lane groups under one bound, calling
// again after each group it offers. Since the bound moves only on an
// offer, it must reject exactly the groups that scoring one group at a
// time rejects. On a fixed V4F search of a dataset with triples-tall's
// generator settings, on one worker, at K = 10 and K = 100,
// trigene_engine_lane_groups_rejected_total must equal the count an
// objective that scores group by group keeps itself, and the same
// search's series under that objective; the top-Ks must be equal. So for
// the exhaustive search, the pair search and the seeded extension, which
// score runs of one group.
func TestLaneRejectionCountMatchesGroupByGroup(t *testing.T) {
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 70, Samples: 500, Seed: 58, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &dataset.Interaction{SNPs: [3]int{4, 31, 62}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	k2 := score.NewK2(mx.Samples())
	seeds := []Pair{{4, 31}, {31, 62}, {4, 62}, {10, 11}}
	for _, arm := range []struct {
		label string
		run   func(Options) (*Result, error)
	}{
		{"V4F", s.Run},
		{"pair", s.RunPairs},
		{"seeded", func(o Options) (*Result, error) { return s.RunSeeded(seeds, nil, o) }},
	} {
		for _, k := range []int{10, 100} {
			var rejected [2]int64
			var tops [2][]Candidate
			perGroup := groupByGroup{k2, new(atomic.Int64)}
			for i, obj := range []score.Objective{k2, perGroup} {
				reg := obs.NewRegistry()
				res, err := arm.run(Options{Approach: V4Fused, Objective: obj, TopK: k, Workers: 1, Metrics: reg})
				if err != nil {
					t.Fatalf("%s K=%d: %v", arm.label, k, err)
				}
				rm := resolveRunMetrics(reg, arm.label)
				rejected[i], tops[i] = rm.rejected.Value(), res.TopK
			}
			t.Logf("%s K=%d: %d lane groups rejected", arm.label, k, rejected[0])
			if counted := perGroup.rejected.Load(); rejected[0] == 0 || rejected[0] != counted || rejected[1] != counted {
				t.Errorf("%s K=%d: %d lane groups rejected by runs, %d group by group (%d counted by the scorer)",
					arm.label, k, rejected[0], rejected[1], counted)
			}
			if !slices.Equal(tops[0], tops[1]) {
				t.Errorf("%s K=%d: top-K %v by runs, %v group by group", arm.label, k, tops[0], tops[1])
			}
		}
	}
}

// TestLanesTilesMatchReference drives the fused loop directly, the way
// TestPairWalkerTilesMatchReference drives the pair pass: for every
// [lo, hi) cut of the block-triple rank space — block triples on and off
// the b0 = b1 and b1 = b2 diagonals, three distinct blocks, last blocks
// that are short — the tile must score exactly the combinations of its
// block triples, each with the score of contingency.BuildReference under
// the objective's 27-row form, on the Go bodies (V3F) and the host's
// (V4F), for K2 (its own lane scoring), MI and Gini (the column
// fallback), claimed one block triple at a time; on class planes of one
// word tile and, with the tile forced down to 8 words, on planes the loop
// walks in several tiles added into its lane-table bank.
func TestLanesTilesMatchReference(t *testing.T) {
	tiled := tiledShapes()
	for i, sh := range append(tiled, shortPlaneShapes()...) {
		s, err := New(sh.mx)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		m := sh.mx.SNPs()
		all := int(combin.Triples(m))
		for _, obj := range []score.Objective{score.NewK2(sh.mx.Samples()), score.MIObjective{}, score.GiniObjective{}} {
			want := map[Triple]float64{}
			combin.ForEachTriple(m, func(i, j, k int) {
				tab := contingency.BuildReference(sh.mx, i, j, k)
				want[Triple{i, j, k}] = obj.Score(&tab)
			})
			for _, a := range []Approach{V3Fused, V4Fused} {
				name := fmt.Sprintf("%s/%s/%v", sh.name, obj.Name(), a)
				opts := Options{Approach: a, Objective: obj, TopK: all}
				if i < len(tiled) {
					opts.BlockWords = 8
				}
				o, err := opts.withDefaults(sh.mx.Samples())
				if err != nil {
					t.Fatal(err)
				}
				sp, bt, err := s.blockSpace(&o, 3, "blocked", a.String())
				if err != nil || sp.src.Grain() != 1 {
					t.Fatalf("%s: claim grain %d, %v; want 1", name, sp.src.Grain(), err)
				}
				w := s.newBlockWorker(&o, getArena(obj, all), bt, nil)
				total := sp.src.Ranks()
				for lo := int64(0); lo < total; lo++ {
					for hi := lo + 1; hi <= total; hi++ {
						w.a.top.reset(obj, all)
						n, _ := w.tile(sched.Tile{Lo: lo, Hi: hi})
						expect := bt.below(hi) - bt.below(lo)
						if n != expect || int64(len(w.a.top.items)) != expect {
							t.Fatalf("%s: tile [%d,%d) reports %d combinations and kept %d, want %d",
								name, lo, hi, n, len(w.a.top.items), expect)
						}
						for _, c := range w.a.top.items {
							tr := c.triple()
							if !(tr.I < tr.J && tr.J < tr.K) || want[tr] != c.Score {
								t.Fatalf("%s: tile [%d,%d) scored %v at %v, reference %v", name, lo, hi, tr, c.Score, want[tr])
							}
							r := combin.RankTriple(tr.I/contingency.Lanes, tr.J/contingency.Lanes+1, tr.K/contingency.Lanes+2)
							if r < lo || r >= hi {
								t.Fatalf("%s: tile [%d,%d) scored %v of block triple %d", name, lo, hi, tr, r)
							}
						}
					}
				}
				w.a.release()
			}
		}
	}
}

// TestBlockedPairTablesFollowTheClaims: a worker keeps the (y, z) pair
// tables of a block pair (b1, b2) across the block triples that share it.
// The same search cut into one-block-triple tiles on two workers, so that
// each worker's claims jump between runs of (b1, b2), and run as one tile
// on one worker, which walks every run in rank order, must find the same
// top-K to the bit and score the same combinations; a bank read for a
// block pair it does not hold would move scores. On ragged 8-word planes
// (224 x 500) and on 256-word ones (96 x 16384).
func TestBlockedPairTablesFollowTheClaims(t *testing.T) {
	for _, shape := range []struct{ m, n int }{{224, 500}, {96, 16384}} {
		s, err := New(randomMatrix(int64(shape.m), shape.m, shape.n))
		if err != nil {
			t.Fatal(err)
		}
		const topK = 64
		cut, err := s.Run(Options{Workers: 2, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		o, err := Options{Workers: 1, TopK: topK}.withDefaults(s.st.Samples())
		if err != nil {
			t.Fatal(err)
		}
		sp, body, err := s.triples(&o)
		if err != nil {
			t.Fatal(err)
		}
		sp.src = sp.src.WithGrain(sp.src.Ranks())
		whole, err := s.run(&o, sp, body)
		if err != nil {
			t.Fatal(err)
		}
		if cut.Stats.Combinations != whole.Stats.Combinations || len(cut.TopK) != topK || len(whole.TopK) != topK {
			t.Fatalf("%d x %d: %d and %d combinations, %d and %d kept", shape.m, shape.n,
				cut.Stats.Combinations, whole.Stats.Combinations, len(cut.TopK), len(whole.TopK))
		}
		for i, c := range cut.TopK {
			if w := whole.TopK[i]; c.SNPs != w.SNPs || math.Float64bits(c.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%d x %d: TopK[%d] is %v at %v cut into block triples, %v at %v as one tile",
					shape.m, shape.n, i, c.triple(), c.Score, w.triple(), w.Score)
			}
		}
	}
}

// TestBlockSpaceCoversEveryCombination: the block walk's space at orders
// 2 and 3 over M SNPs from 3 to 40 — below one block, at multiples of
// eight and one either side. Each block tuple's count must be the number
// of strict combinations whose i'th SNP lies in its i'th block, counted
// one by one; the counts of all ranks must sum to C(M, k), and those
// below each rank to what below counts; and for 1 to 7 shards, the
// progress totals of the shards' spaces must sum to C(M, k) too.
func TestBlockSpaceCoversEveryCombination(t *testing.T) {
	const bs = contingency.Lanes
	for m := 3; m <= 40; m++ {
		s, err := New(randomMatrix(int64(m), m, 16))
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range []int{2, 3} {
			want := combin.Binomial(m, order)
			byTuple := map[[3]int]int64{}
			comb := make([]int, order)
			for r := int64(0); r < want; r++ {
				var key [3]int
				for i, snp := range combin.UnrankK(r, m, comb) {
					key[i] = snp / bs
				}
				byTuple[key]++
			}
			o, err := Options{Progress: func(done, total int64) {}}.withDefaults(16)
			if err != nil {
				t.Fatal(err)
			}
			sp, bt, err := s.blockSpace(&o, order, "blocked", "V4F")
			if err != nil {
				t.Fatal(err)
			}
			if sp.items != want {
				t.Errorf("M=%d order %d: progress total %d, want C(M,k) = %d", m, order, sp.items, want)
			}
			var sum int64
			blocks := make([]int, order)
			for r := int64(0); r < bt.ranks(); r++ {
				if below := bt.below(r); below != sum {
					t.Errorf("M=%d order %d: %d combinations below rank %d, want %d", m, order, below, r, sum)
				}
				bt.unrank(r, blocks)
				var key [3]int
				copy(key[:], blocks)
				if n := bt.combos(blocks); n != byTuple[key] {
					t.Errorf("M=%d order %d: block tuple %v counts %d combinations, enumeration %d", m, order, blocks, n, byTuple[key])
				}
				delete(byTuple, key)
				sum += bt.combos(blocks)
			}
			if sum != want || len(byTuple) != 0 {
				t.Errorf("M=%d order %d: block tuples count %d combinations, want %d; %d tuples of the enumeration unranked", m, order, sum, want, len(byTuple))
			}
			for count := 1; count <= 7; count++ {
				var sharded int64
				for i := 0; i < count; i++ {
					o.Shard = &sched.Shard{Index: i, Count: count}
					sp, _, err := s.blockSpace(&o, order, "blocked", "V4F")
					if err != nil {
						t.Fatal(err)
					}
					sharded += sp.items
				}
				if sharded != want {
					t.Errorf("M=%d order %d: %d shards count %d combinations, want %d", m, order, count, sharded, want)
				}
			}
		}
	}
}
