package mpi3snp

import (
	"math/rand"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/engine"
	"trigene/internal/score"
	"trigene/internal/store"
)

func randomMatrix(seed int64, m, n int) *dataset.Matrix {
	r := rand.New(rand.NewSource(seed))
	mx := dataset.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := mx.Row(i)
		for j := range row {
			row[j] = uint8(r.Intn(3))
		}
	}
	for j := 0; j < n; j++ {
		mx.SetPhen(j, uint8(j%2))
	}
	return mx
}

func TestBaselineAgreesWithEngineOnMI(t *testing.T) {
	mx := randomMatrix(100, 18, 230)
	base, err := Search(encStore(mx), Options{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Search(mx, engine.Options{Objective: score.MIObjective{}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Best.SNPs != eng.Best.SNPs {
		t.Errorf("baseline best %v, engine best %v", base.Best.SNPs[:3], eng.Best.SNPs[:3])
	}
	if base.Best.Score != eng.Best.Score {
		t.Errorf("baseline MI %.9f != engine %.9f", base.Best.Score, eng.Best.Score)
	}
}

func TestBaselineTablesMatchReference(t *testing.T) {
	// The baseline builds tables from three stored planes; spot-check
	// against the oracle through the MI score of a known triple.
	mx := randomMatrix(101, 6, 97)
	base, err := Search(encStore(mx), Options{TopK: int(combin.Triples(6))})
	if err != nil {
		t.Fatal(err)
	}
	// Every combination's MI must match a reference computation.
	want := map[[3]int]float64{}
	combin.ForEachTriple(6, func(i, j, k int) {
		tab := contingency.BuildReference(mx, i, j, k)
		want[[3]int{i, j, k}] = score.MIObjective{}.Score(&tab)
	})
	if int64(len(base.TopK)) != combin.Triples(6) {
		t.Fatalf("TopK = %d, want all %d", len(base.TopK), combin.Triples(6))
	}
	for _, c := range base.TopK {
		if w := want[[3]int(c.SNPs[:3])]; c.Score != w {
			t.Errorf("%v: MI %.9f, want %.9f", c.SNPs[:3], c.Score, w)
		}
	}
}

func TestBaselineRankInvariance(t *testing.T) {
	mx := randomMatrix(102, 14, 150)
	base1, err := Search(encStore(mx), Options{Ranks: 1, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 5, 9} {
		res, err := Search(encStore(mx), Options{Ranks: ranks, TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != base1.Best {
			t.Errorf("ranks=%d best differs", ranks)
		}
		for i := range res.TopK {
			if res.TopK[i] != base1.TopK[i] {
				t.Errorf("ranks=%d TopK[%d] differs", ranks, i)
			}
		}
	}
}

func TestBaselineTopKSorted(t *testing.T) {
	mx := randomMatrix(103, 12, 120)
	res, err := Search(encStore(mx), Options{TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 8 {
		t.Fatalf("TopK = %d", len(res.TopK))
	}
	for i := 1; i < len(res.TopK); i++ {
		if res.TopK[i-1].Score < res.TopK[i].Score {
			t.Errorf("TopK not sorted at %d", i)
		}
	}
}

func TestBaselineValidation(t *testing.T) {
	if _, err := Search(encStore(randomMatrix(104, 2, 10)), Options{}); err == nil {
		t.Error("2-SNP dataset accepted")
	}
	if _, err := Search(encStore(randomMatrix(105, 5, 10)), Options{Ranks: -1}); err == nil {
		t.Error("negative ranks accepted")
	}
	if _, err := Search(encStore(randomMatrix(106, 5, 10)), Options{TopK: -1}); err == nil {
		t.Error("negative TopK accepted")
	}
	// Degenerate datasets are rejected when the store is built, before
	// any engine sees them.
	oneClass := dataset.NewMatrix(5, 10)
	if _, err := store.New(oneClass); err == nil {
		t.Error("single-class dataset accepted")
	}
}

func TestBaselineStats(t *testing.T) {
	mx := randomMatrix(107, 10, 64)
	res, err := Search(encStore(mx), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Combinations != combin.Triples(10) {
		t.Errorf("combinations = %d", res.Stats.Combinations)
	}
	if res.Stats.ElementsPerSec <= 0 {
		t.Error("throughput not populated")
	}
}

func TestBaselinePlantedInteraction(t *testing.T) {
	it := &dataset.Interaction{SNPs: [3]int{1, 6, 9}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 12, Samples: 1200, Seed: 30, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(encStore(mx), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := [3]int(res.Best.SNPs[:3]); got != [3]int{1, 6, 9} {
		t.Errorf("best %v, want planted (1,6,9)", got)
	}
}
