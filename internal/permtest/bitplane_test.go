package permtest

import (
	"sync/atomic"
	"testing"

	"trigene/internal/dataset"
	"trigene/internal/score"
)

// TestBitPlaneParityOrders checks the bit-plane kernel against the
// scalar reference for every supported order and several ragged/odd
// sample counts: Observed and AsGoodOrBetter must be bit-identical.
func TestBitPlaneParityOrders(t *testing.T) {
	combos := map[int][]int{
		2: {1, 9},
		3: {0, 4, 11},
		4: {2, 5, 7, 10},
		5: {0, 3, 6, 9, 11},
		6: {1, 2, 4, 7, 8, 10},
		7: {0, 1, 3, 5, 8, 9, 11},
	}
	for _, n := range []int{64, 65, 101, 127, 300} {
		mx := nullMatrix(50+int64(n), 12, n)
		for k := 2; k <= 7; k++ {
			snps := combos[k]
			cfg := Config{Permutations: 40, Seed: 9}
			want, err := K(mx, snps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := KAll(mx, [][]int{snps}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *got[0] != *want {
				t.Errorf("n=%d order %d: bit-plane %+v != scalar %+v", n, k, got[0], want)
			}
		}
	}
}

// TestBitPlaneParityObjectives runs the parity check under every
// built-in objective, including one beyond the Table-scoring orders.
func TestBitPlaneParityObjectives(t *testing.T) {
	mx := nullMatrix(51, 10, 250)
	objectives := []score.Objective{
		score.NewK2(mx.Samples()),
		score.MIObjective{},
		score.GiniObjective{},
	}
	for _, obj := range objectives {
		for _, snps := range [][]int{{0, 5}, {1, 4, 8}, {0, 2, 4, 6, 8}} {
			cfg := Config{Permutations: 50, Seed: 10, Objective: obj}
			want, err := K(mx, snps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := KAll(mx, [][]int{snps}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *got[0] != *want {
				t.Errorf("%s %v: bit-plane %+v != scalar %+v", obj.Name(), snps, got[0], want)
			}
		}
	}
}

// TestBitPlaneParityDegenerateClasses: one case, one control, no cases
// and no controls — the class sizes where an exact-weight draw could
// spin or a count could go negative — terminate and match the scalar
// reference.
func TestBitPlaneParityDegenerateClasses(t *testing.T) {
	const n = 130
	for _, nCases := range []int{0, 1, n - 1, n} {
		mx := nullMatrix(59, 6, n)
		for s := 0; s < n; s++ {
			mx.SetPhen(s, dataset.Control)
		}
		for s := 0; s < nCases; s++ {
			mx.SetPhen((s*37+5)%n, dataset.Case)
		}
		for _, snps := range [][]int{{0, 3}, {1, 2, 5}, {0, 1, 3, 4}} {
			cfg := Config{Permutations: 40, Seed: 16}
			want, err := K(mx, snps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := KAll(mx, [][]int{snps}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *got[0] != *want {
				t.Errorf("nCases=%d %v: bit-plane %+v != scalar %+v", nCases, snps, got[0], want)
			}
		}
	}
}

// TestBitPlaneMultiCandidate checks that sharing permuted planes across
// a mixed-order candidate set changes nothing: each candidate's result
// equals its standalone scalar test.
func TestBitPlaneMultiCandidate(t *testing.T) {
	mx := nullMatrix(52, 14, 333)
	candidates := [][]int{{0, 1, 2}, {3, 9}, {2, 5, 8, 11}, {1, 6, 13}}
	cfg := Config{Permutations: 80, Seed: 11}
	got, err := KAll(mx, candidates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, snps := range candidates {
		want, err := K(mx, snps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *got[i] != *want {
			t.Errorf("candidate %v: %+v != %+v", snps, got[i], want)
		}
	}
}

// TestBitPlaneWorkers: the kernel is deterministic across worker
// counts, whichever worker claims which batch. 200 permutations are a
// full batch and a ragged one.
func TestBitPlaneWorkers(t *testing.T) {
	mx := nullMatrix(53, 10, 200)
	candidates := [][]int{{0, 3, 7}, {2, 8}}
	var first []*Result
	for _, workers := range []int{1, 2, 5} {
		cfg := Config{Permutations: 200, Seed: 12, Workers: workers}
		res, err := KAll(mx, candidates, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		for i := range res {
			if *res[i] != *first[i] {
				t.Errorf("workers=%d candidate %d: %+v != %+v", workers, i, res[i], first[i])
			}
		}
	}
}

// TestBitPlaneRangeDecomposition: hit counts over disjoint permutation
// ranges sum to the whole-range count — the property cluster merging
// relies on for bit-exact p-values.
func TestBitPlaneRangeDecomposition(t *testing.T) {
	mx := nullMatrix(54, 10, 180)
	candidates := [][]int{{1, 4, 9}, {0, 6}}
	cfg := Config{Seed: 13}
	const total = 90
	whole, err := KAllRange(mx, candidates, 0, total, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]int, len(candidates))
	for _, r := range [][2]int{{0, 17}, {17, 40}, {57, 33}} {
		part, err := KAllRange(mx, candidates, r[0], r[1], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range part.Observed {
			if part.Observed[i] != whole.Observed[i] {
				t.Errorf("range %v candidate %d observed %v != %v", r, i, part.Observed[i], whole.Observed[i])
			}
		}
		for i, h := range part.Hits {
			sum[i] += h
		}
	}
	for i := range sum {
		if sum[i] != whole.Hits[i] {
			t.Errorf("candidate %d: tiled hits %d != whole-range %d", i, sum[i], whole.Hits[i])
		}
	}
}

// TestBitPlanePrebuiltPlanes: supplying Config.Planes gives the same
// results as letting the kernel binarize.
func TestBitPlanePrebuiltPlanes(t *testing.T) {
	mx := nullMatrix(55, 8, 150)
	candidates := [][]int{{0, 2, 5}}
	base := Config{Permutations: 30, Seed: 14}
	want, err := KAll(mx, candidates, base)
	if err != nil {
		t.Fatal(err)
	}
	withPlanes := base
	withPlanes.Planes = dataset.Binarize(mx)
	got, err := KAll(mx, candidates, withPlanes)
	if err != nil {
		t.Fatal(err)
	}
	if *got[0] != *want[0] {
		t.Errorf("prebuilt planes %+v != self-binarized %+v", got[0], want[0])
	}
}

func TestBitPlaneValidation(t *testing.T) {
	mx := nullMatrix(56, 6, 100)
	if _, err := KAll(mx, nil, Config{}); err == nil {
		t.Error("empty candidate set accepted")
	}
	if _, err := KAll(mx, [][]int{{3, 1}}, Config{}); err == nil {
		t.Error("unordered candidate accepted")
	}
	if _, err := KAll(mx, [][]int{{4}}, Config{}); err == nil {
		t.Error("order-1 candidate accepted")
	}
	if _, err := KAll(mx, [][]int{{0, 9}}, Config{}); err == nil {
		t.Error("out-of-range candidate accepted")
	}
	if _, err := KAllRange(mx, [][]int{{0, 1}}, -1, 10, Config{}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := KAllRange(mx, [][]int{{0, 1}}, 0, 0, Config{}); err == nil {
		t.Error("empty range accepted")
	}
	other := nullMatrix(57, 6, 99)
	if _, err := KAll(mx, [][]int{{0, 1}}, Config{Planes: dataset.Binarize(other)}); err == nil {
		t.Error("mismatched planes accepted")
	}
}

// TestBitPlaneSteadyStateAllocs: the per-permutation loop — draw,
// count, score — must not allocate at all once the per-worker scratch
// exists. The probe preallocates the scratch and drives the worker loop
// directly, asserting exactly zero allocations per run. The counts of a
// pass live on count's stack and go to the assembly by pointer: without
// //go:noescape on the CountPlanes stub every pass would move them to
// the heap, and this test is what notices.
func TestBitPlaneSteadyStateAllocs(t *testing.T) {
	mx := nullMatrix(58, 10, 256)
	candidates := [][]int{{0, 2, 4}, {1, 7}, {3, 5, 8, 9}}
	cfg := Config{Seed: 15, Workers: 1, Planes: dataset.Binarize(mx)}
	c, err := cfg.withDefaults(mx.Samples())
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]planeCand, len(candidates))
	cs := newCellScore(c.Objective)
	maxCells := 0
	for i, snps := range candidates {
		if err := buildCand(c.Planes, snps, cs, &cands[i]); err != nil {
			t.Fatal(err)
		}
		if cands[i].cells > maxCells {
			maxCells = cands[i].cells
		}
	}
	_, nCases := mx.ClassCounts()
	ps := newPermScratch(c, len(cands), c.Planes.Words, maxCells)

	const perms = 100
	avg := testing.AllocsPerRun(10, func() {
		var next atomic.Int64
		ps.permWorker(c, cands, mx.Samples(), nCases, 0, perms, &next)
	})
	if avg != 0 {
		t.Errorf("hot path allocates: %.1f allocs per %d permutations, want 0", avg, perms)
	}
}
