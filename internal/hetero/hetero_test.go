package hetero

import (
	"math/rand"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/dataset"
	"trigene/internal/engine"
	"trigene/internal/score"
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

// TestHeterogeneousMatchesFullSearch: however many CPU workers race the
// device for the shared cursor, the merged best is the CPU engine's and
// the two halves cover the space exactly.
func TestHeterogeneousMatchesFullSearch(t *testing.T) {
	mx := randomMatrix(120, 18, 200)
	want, err := engine.Search(mx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{{}, {Workers: 1}, {Workers: 2}, {Workers: 3}} {
		res, err := Search(encStore(mx), o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if res.Best != want.Best {
			t.Errorf("%+v: best %+v, want %+v", o, res.Best, want.Best)
		}
		sum := res.CPUStats.Combinations + res.GPUStats.Combinations
		if sum != want.Stats.Combinations {
			t.Errorf("%+v: halves cover %d of %d combinations", o, sum, want.Stats.Combinations)
		}
	}
}

// TestHeterogeneousWorkStealing: the default mode shares one cursor
// between the CPU pool and the simulated GPU. Both sides get work
// (the device's opening claim is sequenced before the CPU pool
// starts), the union covers the space exactly, and the merged best is
// bit-exact against a pure CPU run.
func TestHeterogeneousWorkStealing(t *testing.T) {
	mx := randomMatrix(122, 22, 150)
	want, err := engine.Search(mx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(encStore(mx), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != want.Best {
		t.Errorf("best %+v, want %+v", res.Best, want.Best)
	}
	sum := res.CPUStats.Combinations + res.GPUStats.Combinations
	if sum != want.Stats.Combinations {
		t.Errorf("halves cover %d of %d combinations", sum, want.Stats.Combinations)
	}
	// The device claims its opening tiles before the CPU pool starts,
	// so the realized fraction is strictly inside (0, 1).
	if res.GPUStats.Combinations == 0 {
		t.Error("work-stealing run gave the GPU no tiles")
	}
	if res.CPUFraction < 0 || res.CPUFraction >= 1 {
		t.Errorf("realized CPU fraction = %.3f", res.CPUFraction)
	}
	if res.ModeledCombinedGElems <= 0 {
		t.Error("combined throughput not populated")
	}
}

// TestHeterogeneousTopKMerge: WithTopK-depth lists survive the merge
// from both sides, bit-exact against the CPU engine's list.
func TestHeterogeneousTopKMerge(t *testing.T) {
	mx := randomMatrix(125, 16, 140)
	want, err := engine.Search(mx, engine.Options{TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(encStore(mx), Options{TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != len(want.TopK) {
		t.Fatalf("top-K %d entries, want %d", len(res.TopK), len(want.TopK))
	}
	for i := range want.TopK {
		if res.TopK[i] != want.TopK[i] {
			t.Errorf("TopK[%d] = %+v, want %+v", i, res.TopK[i], want.TopK[i])
		}
	}
}

// TestHeterogeneousShardRange: a Range-restricted run covers exactly
// the range, and two half ranges union to the full result.
func TestHeterogeneousShardRange(t *testing.T) {
	mx := randomMatrix(126, 14, 120)
	total := combin.Triples(14)
	full, err := Search(encStore(mx), Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	cut := total / 2
	a, err := Search(encStore(mx), Options{TopK: 5, Range: &combin.Range{Lo: 0, Hi: cut}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(encStore(mx), Options{TopK: 5, Range: &combin.Range{Lo: cut, Hi: total}})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.CPUStats.Combinations + a.GPUStats.Combinations; got != cut {
		t.Errorf("low shard covers %d of %d", got, cut)
	}
	merged := engine.NewTopK(score.NewK2(mx.Samples()), 5)
	for _, c := range append(a.TopK, b.TopK...) {
		merged.Offer(c)
	}
	got := merged.List()
	if len(got) != len(full.TopK) {
		t.Fatalf("merged %d entries, full %d", len(got), len(full.TopK))
	}
	for i := range full.TopK {
		if got[i] != full.TopK[i] {
			t.Errorf("TopK[%d] = %+v, full %+v", i, got[i], full.TopK[i])
		}
	}
	if _, err := Search(encStore(mx), Options{Range: &combin.Range{Lo: 5, Hi: total + 1}}); err == nil {
		t.Error("out-of-bounds range accepted")
	}
}
