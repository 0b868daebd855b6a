package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/obs"
	"trigene/internal/sched"
	"trigene/internal/score"
)

// TestPairSearchMatchesBruteForce: the pair pass finds a brute force's
// best on the Go bodies (V3F) and the host's (V4F).
func TestPairSearchMatchesBruteForce(t *testing.T) {
	mx := randomMatrix(110, 20, 150)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	best := Candidate{Score: obj.Worst()}
	combin.ForEachPair(20, func(i, j int) {
		tab := contingency.BuildReferencePair(mx, i, j)
		sc := obj.Score(&tab)
		c := Pair{i, j}.scored(sc)
		if sc != best.Score && obj.Better(sc, best.Score) || sc == best.Score && c.Less(best) {
			best = c
		}
	})
	for _, a := range []Approach{V3Fused, V4Fused} {
		res, err := s.RunPairs(Options{Approach: a, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != best {
			t.Errorf("%v: best = %+v, want %+v", a, res.Best, best)
		}
		if res.Stats.Combinations != combin.Pairs(20) {
			t.Errorf("%v: combinations = %d", a, res.Stats.Combinations)
		}
	}
}

func TestPairEmbeddedTableScoresLikeNineCells(t *testing.T) {
	// The embedded representation must leave the unused 18 cells at
	// zero so K2/MI/Gini see pure pair semantics.
	mx := randomMatrix(112, 5, 80)
	tab := contingency.BuildReferencePair(mx, 1, 3)
	used := map[int]bool{}
	for gx := 0; gx < 3; gx++ {
		for gy := 0; gy < 3; gy++ {
			used[contingency.PairComboIndex(gx, gy)] = true
		}
	}
	for class := 0; class < 2; class++ {
		for cell, v := range tab.Counts[class] {
			if !used[cell] && v != 0 {
				t.Fatalf("unused cell %d has count %d", cell, v)
			}
		}
	}
	controls, cases := mx.ClassCounts()
	if err := tab.Validate(controls, cases); err != nil {
		t.Fatal(err)
	}
}

func TestPairPlantedInteractionRecovered(t *testing.T) {
	// A pair penetrance rewarding double-minor carriers.
	var pen [9]float64
	for c := range pen {
		if c/3+c%3 >= 2 {
			pen[c] = 0.9
		} else {
			pen[c] = 0.1
		}
	}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 40, Samples: 1500, Seed: 13, MAFMin: 0.3, MAFMax: 0.5,
		PairInteraction: &dataset.PairInteraction{SNPs: [2]int{8, 23}, Penetrance: pen},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunPairs(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Order != 2 || res.Best != (Pair{I: 8, J: 23}).scored(res.Best.Score) {
		t.Errorf("order-%d best %v, want planted (8,23)", res.Order, res.Best.SNPs)
	}
}

func TestPairWorkerInvarianceAndTopK(t *testing.T) {
	mx := randomMatrix(113, 30, 200)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.RunPairs(Options{Workers: 1, TopK: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.TopK) != 7 {
		t.Fatalf("TopK = %d", len(base.TopK))
	}
	obj := score.NewK2(mx.Samples())
	for i := 1; i < len(base.TopK); i++ {
		a, b := base.TopK[i-1], base.TopK[i]
		if a.Score != b.Score && !obj.Better(a.Score, b.Score) {
			t.Errorf("TopK not sorted at %d", i)
		}
	}
	for _, workers := range []int{2, 6} {
		res, err := s.RunPairs(Options{Workers: workers, TopK: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.TopK {
			if res.TopK[i] != base.TopK[i] {
				t.Errorf("workers=%d TopK[%d] differs", workers, i)
			}
		}
	}
}

func TestPairGeneratorValidation(t *testing.T) {
	_, err := dataset.Generate(dataset.GenConfig{
		SNPs: 10, Samples: 50, Seed: 1,
		Interaction:     &dataset.Interaction{SNPs: [3]int{0, 1, 2}},
		PairInteraction: &dataset.PairInteraction{SNPs: [2]int{3, 4}},
	})
	if err == nil {
		t.Error("both interactions accepted")
	}
	_, err = dataset.Generate(dataset.GenConfig{
		SNPs: 10, Samples: 50, Seed: 1,
		PairInteraction: &dataset.PairInteraction{SNPs: [2]int{3, 3}},
	})
	if err == nil {
		t.Error("duplicate pair SNPs accepted")
	}
}

func TestPairCancellation(t *testing.T) {
	mx := randomMatrix(114, 200, 256)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunPairs(Options{Context: ctx}); err == nil {
		t.Error("cancelled pair run returned no error")
	}
}

// TestPairWalkerTilesMatchReference drives the pair walk, the block walk's
// pair pass, directly: for every [lo, hi) cut of the block-pair rank space
// — block pairs on and off the diagonal, a last block of one SNP (9 SNPs)
// and of three (19) — the tile
// must offer exactly the pairs of its block pairs, each once, with
// BuildReferencePair's score, and count them, on the Go bodies (V3F) and
// the host's (V4F). 173 samples leave both classes ragged.
func TestPairWalkerTilesMatchReference(t *testing.T) {
	for _, m := range []int{9, 19} {
		mx := randomMatrix(115, m, 173)
		s, err := New(mx)
		if err != nil {
			t.Fatal(err)
		}
		all := int(combin.Pairs(m))
		want := map[Pair]float64{}
		obj := score.NewK2(mx.Samples())
		combin.ForEachPair(m, func(i, j int) {
			tab := contingency.BuildReferencePair(mx, i, j)
			want[Pair{i, j}] = obj.Score(&tab)
		})
		for _, ap := range []Approach{V3Fused, V4Fused} {
			o, err := Options{Approach: ap, Objective: obj, TopK: all}.withDefaults(mx.Samples())
			if err != nil {
				t.Fatal(err)
			}
			sp, bt, err := s.blockSpace(&o, 2, "pair", "pair")
			if err != nil {
				t.Fatal(err)
			}
			a := getArena(o.Objective, o.TopK)
			w := s.newBlockWorker(&o, a, bt, nil)
			total := sp.src.Ranks()
			for lo := int64(0); lo < total; lo++ {
				for hi := lo + 1; hi <= total; hi++ {
					a.top.reset(o.Objective, o.TopK)
					var expect int64
					for r := lo; r < hi; r++ {
						var blocks [2]int
						bt.unrank(r, blocks[:])
						expect += bt.combos(blocks[:])
					}
					if n, err := w.tile(sched.Tile{Lo: lo, Hi: hi}); n != expect || err != nil || int64(len(a.top.items)) != expect {
						t.Fatalf("%d SNPs %v: tile [%d,%d) reports %d pairs (%v) and offered %d, want %d", m, ap, lo, hi, n, err, len(a.top.items), expect)
					}
					seen := map[Pair]bool{}
					for _, c := range a.top.items {
						p := Pair{c.SNPs[0], c.SNPs[1]}
						r := combin.RankK([]int{p.I / contingency.Lanes, p.J/contingency.Lanes + 1})
						sc, ok := want[p]
						if !ok || r < lo || r >= hi || seen[p] || [contingency.MaxOrder - 2]int(c.SNPs[2:]) != [contingency.MaxOrder - 2]int{} || c.Score != sc {
							t.Fatalf("%d SNPs %v: tile [%d,%d) offered %+v, reference score %v", m, ap, lo, hi, c, sc)
						}
						seen[p] = true
					}
				}
			}
			a.release()
		}
	}
}

func TestPairLessAndTypes(t *testing.T) {
	less := func(a, b Pair) bool { return a.scored(0).Less(b.scored(0)) }
	if !less(Pair{1, 2}, Pair{1, 3}) || !less(Pair{1, 2}, Pair{2, 0}) || less(Pair{1, 3}, Pair{1, 2}) {
		t.Error("pair candidates ordered wrong")
	}
}

// TestPairRejectionParityWithTies: K2's lane scoring gives up on a group
// of eight pairs once none of them can enter the worker's top-K or, on a
// screen, improve either SNP's best, and a pair search and a screen must
// report what they reported when every table was scored in full. The
// dataset has a strong planted pair (2, 9); SNPs 3, 4 and 5 are copies of
// 2 and SNP 10 one of 9, so every pair that swaps copies in has the same
// table and the same score bits: eight pairs tie for first place, every
// SNP of them ties its bests with its copies, and the copies' own pairs
// tie further down. Where the bound bites, a pair scoring exactly the
// bound must still be offered: (2, 10) is met after (3, 9), (4, 9) and
// (5, 9) — a later group of their block pair — and at K = 4 it has to
// displace (5, 9) on the pair order alone. RunPairs at K = 1, 4 and 10 and
// RunPairScreen (its Best, Seen and TopPairs) must equal a brute force
// over BuildReferencePair and Score under K2, MI and Gini, sharded 1,
// 3 and 7 ways on 1 and 4 workers, on the Go bodies (V3F) and the host's
// (V4F), and the pair rejection counter must show that groups were
// rejected under V4F's K2 and none under MI and Gini or on V3F, which
// scores every table in full.
func TestPairRejectionParityWithTies(t *testing.T) {
	const m = 28
	var pen [9]float64
	for c := range pen {
		pen[c] = 0.1
		if c/3+c%3 >= 3 {
			pen[c] = 0.9
		}
	}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: m, Samples: 600, Seed: 26, MAFMin: 0.3, MAFMax: 0.5,
		PairInteraction: &dataset.PairInteraction{SNPs: [2]int{2, 9}, Penetrance: pen},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{2, 3}, {2, 4}, {2, 5}, {9, 10}} {
		copy(mx.Row(c[1]), mx.Row(c[0]))
	}
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []score.Objective{score.NewK2(mx.Samples()), score.MIObjective{}, score.GiniObjective{}} {
		ref := NewTopK(obj, int(combin.Pairs(m)))
		best := make([]float64, m)
		for i := range best {
			best[i] = obj.Worst()
		}
		combin.ForEachPair(m, func(i, j int) {
			tab := contingency.BuildReferencePair(mx, i, j)
			sc := obj.Score(&tab)
			ref.Offer(Pair{i, j}.scored(sc))
			for _, snp := range []int{i, j} {
				if obj.Better(sc, best[snp]) {
					best[snp] = sc
				}
			}
		})
		ranking := ref.List()
		if obj.Name() == "k2" {
			if planted := (Pair{2, 9}).scored(ranking[0].Score); ranking[0] != planted || ranking[7].Score != ranking[0].Score {
				t.Fatalf("fixture: best %+v, eighth %+v; want (2,9) tied eight ways", ranking[0], ranking[7])
			}
			for _, k := range []int{1, 4, 10} {
				if ranking[k-1].Score != ranking[k].Score {
					t.Fatalf("fixture: places %d and %d do not tie (%v, %v)", k, k+1, ranking[k-1].Score, ranking[k].Score)
				}
			}
		}
		for _, k := range []int{1, 4, 10} {
			want := ranking[:k]
			for _, shards := range []int{1, 3, 7} {
				for _, arm := range []struct {
					a       Approach
					workers int
				}{{V3Fused, 1}, {V3Fused, 4}, {V4Fused, 1}, {V4Fused, 4}} {
					workers := arm.workers
					name := fmt.Sprintf("%s K=%d %d shards %d workers %v", obj.Name(), k, shards, workers, arm.a)
					reg := obs.NewRegistry()
					pairs, seeds := NewTopK(obj, k), NewTopK(obj, k)
					var combos, screened int64
					merged := newScreenPlanes(obj, m)
					for i := 0; i < shards; i++ {
						o := Options{Approach: arm.a, Objective: obj, TopK: k, Workers: workers, Metrics: reg}
						if shards > 1 {
							o.Shard = &sched.Shard{Index: i, Count: shards}
						}
						res, err := s.RunPairs(o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						combos += res.Stats.Combinations
						pairs.merge(&TopK{items: res.TopK})
						scr, err := s.RunPairScreen(o)
						if err != nil {
							t.Fatalf("%s: screen: %v", name, err)
						}
						screened += scr.Stats.Combinations
						seeds.merge(&TopK{items: scr.TopPairs})
						for snp, seen := range scr.Seen {
							if seen {
								merged.keep(snp, scr.Best[snp])
							}
						}
					}
					if combos != combin.Pairs(m) || screened != combin.Pairs(m) {
						t.Errorf("%s: %d and %d pairs scanned, want %d", name, combos, screened, combin.Pairs(m))
					}
					for _, got := range [][]Candidate{pairs.List(), seeds.List()} {
						if len(got) != len(want) {
							t.Fatalf("%s: %d candidates, want %d", name, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("%s: TopK[%d] = %+v, reference %+v", name, i, got[i], want[i])
							}
						}
					}
					for snp := range best {
						if !merged.seen[snp] || math.Float64bits(merged.best[snp]) != math.Float64bits(best[snp]) {
							t.Errorf("%s: SNP %d best %v (seen %v), reference %v", name, snp, merged.best[snp], merged.seen[snp], best[snp])
						}
					}
					switch rejected := resolveRunMetrics(reg, "pair").rejected.Value(); {
					case obj.Name() == "k2" && arm.a == V4Fused && rejected == 0:
						t.Errorf("%s: no lane group was rejected", name)
					case (obj.Name() != "k2" || arm.a == V3Fused) && rejected != 0:
						t.Errorf("%s: %d lane groups rejected without a bound", name, rejected)
					}
				}
			}
		}
	}
}

// TestPairGroupBoundCoversEverySNP: a screen may give up on a group of
// pairs only when none of them can improve the best of any SNP the group
// holds. Every SNP's best is primed below any K2 score (−1) and the top-K
// is full of such scores, so the group (8..15, 16) — the one group of the
// block pair (1, 2) at 17 SNPs — is rejected, unless one of its SNPs, the
// x of any lane or y, has a loose best. Then the group must be scored and
// that best improved: to the lane's pair's score for an x, to the best of
// the eight for y; no other best moves.
func TestPairGroupBoundCoversEverySNP(t *testing.T) {
	const m, x, y = 17, 8, 16
	mx := randomMatrix(116, m, 300)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Options{TopK: 3}.withDefaults(mx.Samples())
	if err != nil {
		t.Fatal(err)
	}
	var scores [contingency.Lanes]float64
	for l := range scores {
		tab := contingency.BuildReferencePair(mx, x+l, y)
		scores[l] = o.Objective.Score(&tab)
	}
	_, bt, err := s.blockSpace(&o, 2, "pair", "pair")
	if err != nil {
		t.Fatal(err)
	}
	for loose := -1; loose <= contingency.Lanes; loose++ {
		snp := -1 // the SNP with a loose best: none, lane loose's x, or y
		switch {
		case loose == contingency.Lanes:
			snp = y
		case loose >= 0:
			snp = x + loose
		}
		a := getArena(o.Objective, o.TopK)
		screen := newScreenPlanes(o.Objective, m)
		for i := range screen.best {
			screen.best[i], screen.seen[i] = -1, true
		}
		if snp >= 0 {
			screen.best[snp] = math.MaxFloat64
		}
		for k := 0; k < o.TopK; k++ {
			a.top.Offer(Pair{0, k + 1}.scored(-1))
		}
		s.newBlockWorker(&o, a, bt, screen).processBlockPair(x/contingency.Lanes, y/contingency.Lanes)
		if rejected := a.rejected == 1; rejected != (snp < 0) {
			t.Errorf("loose SNP %d: %d groups rejected", snp, a.rejected)
		}
		for i, b := range screen.best {
			want := -1.0
			switch {
			case i == snp && snp == y:
				want = slices.Min(scores[:])
			case i == snp:
				want = scores[i-x]
			}
			if b != want {
				t.Errorf("loose SNP %d: SNP %d best %v, want %v", snp, i, b, want)
			}
		}
		a.release()
	}
}
