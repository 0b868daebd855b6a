package permtest

import (
	"sync/atomic"
	"testing"

	"trigene/internal/dataset"
	"trigene/internal/score"
)

// planesOf encodes the planes a call on these candidates reads: those of
// the candidates' SNPs, like Session.PermutationTestAll.
func planesOf(mx *dataset.Matrix, candidates [][]int) *dataset.SNPPlanes {
	var snps []int
	for _, c := range candidates {
		snps = append(snps, c...)
	}
	return dataset.BinarizeSNPs(mx, snps)
}

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
			got, err := KAll(planesOf(mx, [][]int{snps}), [][]int{snps}, cfg)
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
			got, err := KAll(planesOf(mx, [][]int{snps}), [][]int{snps}, cfg)
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
			got, err := KAll(planesOf(mx, [][]int{snps}), [][]int{snps}, cfg)
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
	got, err := KAll(planesOf(mx, candidates), candidates, cfg)
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
		res, err := KAll(planesOf(mx, candidates), candidates, cfg)
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
	whole, err := KAllRange(planesOf(mx, candidates), candidates, 0, total, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]int, len(candidates))
	for _, r := range [][2]int{{0, 17}, {17, 40}, {57, 33}} {
		part, err := KAllRange(planesOf(mx, candidates), candidates, r[0], r[1], cfg)
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

// TestPermPlanesSubset: the kernel reads the planes of the candidates'
// SNPs and nothing else of the dataset, so candidate-only planes encoded
// from the matrix, the same SNPs selected out of a Binarized of all of
// them and every SNP's planes give the same observed scores and hit
// counts — those of the scalar K — over mixed orders and candidates
// sharing SNPs, at sample counts on and off a word boundary.
func TestPermPlanesSubset(t *testing.T) {
	candidates := [][]int{{1, 4}, {1, 4, 9}, {0, 4, 9, 12}, {2, 9}, {4, 12, 13}}
	for _, n := range []int{64, 150, 257} {
		mx := nullMatrix(55+int64(n), 16, n)
		cfg := Config{Permutations: 60, Seed: 14, Workers: 2}
		all := make([]int, mx.SNPs())
		for i := range all {
			all[i] = i
		}
		var named []int
		for _, c := range candidates {
			named = append(named, c...)
		}
		bin := dataset.Binarize(mx)
		forms := map[string]*dataset.SNPPlanes{
			"candidate-only, from the matrix":  dataset.BinarizeSNPs(mx, named),
			"candidate-only, out of Binarized": bin.Select(named),
			"every SNP":                        bin.Select(all),
		}
		for name, planes := range forms {
			got, err := KAll(planes, candidates, cfg)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			for i, snps := range candidates {
				want, err := K(mx, snps, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if *got[i] != *want {
					t.Errorf("n=%d %s, candidate %v: %+v != scalar %+v", n, name, snps, got[i], want)
				}
			}
		}
	}
}

func TestBitPlaneValidation(t *testing.T) {
	mx := nullMatrix(56, 6, 100)
	if _, err := KAll(planesOf(mx, nil), nil, Config{}); err == nil {
		t.Error("empty candidate set accepted")
	}
	for name, c := range map[string][]int{"unordered": {3, 1}, "order-1": {4}, "out-of-range": {0, 9}} {
		if _, err := KAll(planesOf(mx, [][]int{c}), [][]int{c}, Config{}); err == nil {
			t.Errorf("%s candidate accepted", name)
		}
	}
	planes := planesOf(mx, [][]int{{0, 1}})
	if _, err := KAllRange(planes, [][]int{{0, 1}}, -1, 10, Config{}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := KAllRange(planes, [][]int{{0, 1}}, 0, 0, Config{}); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := KAll(planes, [][]int{{0, 2}}, Config{}); err == nil {
		t.Error("candidate with a SNP the planes do not hold accepted")
	}
}

// TestBitPlaneSteadyStateAllocs: the per-permutation loop — draw,
// transpose, count, score — must not allocate at all once the per-worker
// scratch exists. The probe takes the scratch from the pool and drives the
// worker loop directly, asserting exactly zero allocations per run, at
// block widths that take every chunk width and candidates of orders 2, 3
// and 4 (lane tables and the count matrix). Without //go:noescape on the
// assembly stubs the tables and scores would move to the heap, and this
// test is what notices.
func TestBitPlaneSteadyStateAllocs(t *testing.T) {
	mx := nullMatrix(58, 10, 256)
	candidates := [][]int{{0, 2, 4}, {1, 7}, {3, 5, 8, 9}}
	planes := planesOf(mx, candidates)
	_, nCases := mx.ClassCounts()
	for _, obj := range []score.Objective{nil, score.GiniObjective{}} {
		for _, perms := range []int{100, 448} {
			cfg := Config{Seed: 15, Workers: 1, Objective: obj}
			c, err := cfg.withDefaults(mx.Samples())
			if err != nil {
				t.Fatal(err)
			}
			p, err := Prepare(planes, candidates, c)
			if err != nil {
				t.Fatal(err)
			}
			lay := p.layout(blockPerms(planes.N, perms, 1))
			ps := getScratch(c, lay, len(p.cands))
			avg := testing.AllocsPerRun(10, func() {
				var next atomic.Int64
				ps.permWorker(c, p.cands, mx.Samples(), nCases, 0, perms, &next)
			})
			if avg != 0 {
				t.Errorf("%s, %d permutations in blocks of %d: hot path allocates %.1f times per run, want 0",
					ps.cs.obj.Name(), perms, 64*lay.r, avg)
			}
		}
	}
}
