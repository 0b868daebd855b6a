package permtest

import (
	"math/rand"
	"testing"

	"trigene/internal/dataset"
	"trigene/internal/engine"
	"trigene/internal/score"
)

func nullMatrix(seed int64, m, n int) *dataset.Matrix {
	r := rand.New(rand.NewSource(seed))
	mx := dataset.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := mx.Row(i)
		for j := range row {
			row[j] = uint8(r.Intn(3))
		}
	}
	for j := 0; j < n; j++ {
		mx.SetPhen(j, uint8(r.Intn(2)))
	}
	return mx
}

func TestPlantedInteractionIsSignificant(t *testing.T) {
	it := &dataset.Interaction{SNPs: [3]int{2, 8, 14}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 20, Samples: 1000, Seed: 40, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Triple(mx, 2, 8, 14, Config{Permutations: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A strong planted signal should beat every permutation.
	if res.AsGoodOrBetter != 0 {
		t.Errorf("planted triple beaten by %d permutations", res.AsGoodOrBetter)
	}
	if res.PValue > 1.0/200 {
		t.Errorf("p-value %.4f, want <= %.4f", res.PValue, 1.0/200)
	}
}

func TestNullTripleNotSignificant(t *testing.T) {
	mx := nullMatrix(41, 12, 800)
	// A fixed arbitrary triple on null data should not be extreme.
	res, err := Triple(mx, 1, 5, 9, Config{Permutations: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.01 {
		t.Errorf("null triple p-value %.4f suspiciously small", res.PValue)
	}
	if res.Permutations != 200 {
		t.Errorf("permutations = %d", res.Permutations)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	mx := nullMatrix(42, 10, 300)
	var first *Result
	for _, workers := range []int{1, 2, 5} {
		res, err := Triple(mx, 0, 4, 8, Config{Permutations: 60, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if *res != *first {
			t.Errorf("workers=%d result %+v != %+v", workers, res, first)
		}
	}
}

func TestPairPermutationTest(t *testing.T) {
	var pen [9]float64
	for c := range pen {
		if c/3+c%3 >= 2 {
			pen[c] = 0.9
		} else {
			pen[c] = 0.1
		}
	}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 15, Samples: 900, Seed: 43, MAFMin: 0.3, MAFMax: 0.5,
		PairInteraction: &dataset.PairInteraction{SNPs: [2]int{3, 11}, Penetrance: pen},
	})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := Pair(mx, 3, 11, Config{Permutations: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sig.PValue > 0.02 {
		t.Errorf("planted pair p-value %.4f, want tiny", sig.PValue)
	}
	null, err := Pair(mx, 0, 1, Config{Permutations: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if null.PValue < 0.01 {
		t.Errorf("null pair p-value %.4f suspiciously small", null.PValue)
	}
}

func TestEndToEndScanThenTest(t *testing.T) {
	// The intended workflow: scan finds the best triple, permtest
	// quantifies it.
	it := &dataset.Interaction{SNPs: [3]int{1, 7, 13}, Penetrance: dataset.ThresholdPenetrance(2, 0.1, 0.9)}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 18, Samples: 800, Seed: 44, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := engine.Search(mx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Triple(mx, scan.Best.SNPs[0], scan.Best.SNPs[1], scan.Best.SNPs[2],
		Config{Permutations: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != scan.Best.Score {
		t.Errorf("observed %.6f != scan score %.6f", res.Observed, scan.Best.Score)
	}
	if res.PValue > 0.05 {
		t.Errorf("best-of-scan p-value %.4f, want small", res.PValue)
	}
}

func TestObjectiveConsistency(t *testing.T) {
	mx := nullMatrix(45, 8, 200)
	obj := score.MIObjective{}
	res, err := Triple(mx, 0, 3, 6, Config{Permutations: 50, Seed: 7, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue <= 0 || res.PValue > 1 {
		t.Errorf("p-value %.4f out of range", res.PValue)
	}
}

func TestValidation(t *testing.T) {
	mx := nullMatrix(46, 6, 100)
	if _, err := Triple(mx, 3, 1, 5, Config{}); err == nil {
		t.Error("unordered triple accepted")
	}
	if _, err := Triple(mx, 0, 1, 6, Config{}); err == nil {
		t.Error("out-of-range triple accepted")
	}
	if _, err := Pair(mx, 2, 2, Config{}); err == nil {
		t.Error("degenerate pair accepted")
	}
	if _, err := Triple(mx, 0, 1, 2, Config{Permutations: -5}); err == nil {
		t.Error("negative permutations accepted")
	}
	if _, err := Triple(mx, 0, 1, 2, Config{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
}
