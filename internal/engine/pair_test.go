package engine

import (
	"context"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
	"trigene/internal/score"
)

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
	res, err := s.RunPairs(Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != best {
		t.Errorf("best = %+v, want %+v", res.Best, best)
	}
	if res.Stats.Combinations != combin.Pairs(20) {
		t.Errorf("combinations = %d", res.Stats.Combinations)
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
	res, err := SearchPairs(mx, Options{})
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

// TestPairWalkerTilesMatchReference drives the walker directly: cut any
// way into tiles (mid-run starts and ends, single ranks, runs of one
// pair at j = 1), it must offer exactly the colexicographic pairs of
// each tile, each once, with BuildReferencePair's score. 173 samples
// leave both classes ragged.
func TestPairWalkerTilesMatchReference(t *testing.T) {
	const m = 9
	mx := randomMatrix(115, m, 173)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	total := combin.Pairs(m)
	o, err := Options{TopK: int(total)}.withDefaults(mx.Samples())
	if err != nil {
		t.Fatal(err)
	}
	var want []float64 // by pair rank
	combin.ForEachPair(m, func(i, j int) {
		tab := contingency.BuildReferencePair(mx, i, j)
		want = append(want, o.Objective.Score(&tab))
	})
	a := getArena(o.Objective, o.TopK)
	defer a.release()
	w := s.newPairWalker(&o, a, nil)
	for lo := int64(0); lo < total; lo++ {
		for hi := lo + 1; hi <= total; hi++ {
			a.top.reset(o.Objective, o.TopK)
			if n, err := w.tile(sched.Tile{Lo: lo, Hi: hi}); n != hi-lo || err != nil {
				t.Fatalf("tile [%d,%d) reports %d pairs, %v", lo, hi, n, err)
			}
			if len(a.top.items) != int(hi-lo) {
				t.Fatalf("tile [%d,%d) offered %d pairs", lo, hi, len(a.top.items))
			}
			seen := map[int64]bool{}
			for _, c := range a.top.items {
				r := combin.RankPair(c.SNPs[0], c.SNPs[1])
				if r < lo || r >= hi || seen[r] || [contingency.MaxOrder - 2]int(c.SNPs[2:]) != [contingency.MaxOrder - 2]int{} || c.Score != want[r] {
					t.Fatalf("tile [%d,%d) offered %+v, reference score %v", lo, hi, c, want[min(r, total-1)])
				}
				seen[r] = true
			}
		}
	}
}

func TestPairLessAndTypes(t *testing.T) {
	less := func(a, b Pair) bool { return a.scored(0).Less(b.scored(0)) }
	if !less(Pair{1, 2}, Pair{1, 3}) || !less(Pair{1, 2}, Pair{2, 0}) || less(Pair{1, 3}, Pair{1, 2}) {
		t.Error("pair candidates ordered wrong")
	}
}
