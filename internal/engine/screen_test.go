package engine

import (
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/sched"
	"trigene/internal/score"
)

// TestPairScreenMatchesBruteForce: the stage-1 scan's per-SNP planes
// must equal a reference pair enumeration (every pair's score charged
// to both SNPs, best kept), and its seed list must equal the pair
// engine's own ranking — the screen is the pair search with a
// different accumulator, nothing more.
func TestPairScreenMatchesBruteForce(t *testing.T) {
	const m = 20
	mx := randomMatrix(300, m, 160)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	best := make([]float64, m)
	for i := range best {
		best[i] = obj.Worst()
	}
	combin.ForEachPair(m, func(i, j int) {
		tab := contingency.BuildReferencePair(mx, i, j)
		sc := obj.Score(&tab)
		if obj.Better(sc, best[i]) {
			best[i] = sc
		}
		if obj.Better(sc, best[j]) {
			best[j] = sc
		}
	})

	res, err := s.RunPairScreen(Options{Workers: 3, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.SNPs != m {
		t.Fatalf("SNPs = %d, want %d", res.SNPs, m)
	}
	if res.Stats.Combinations != combin.Pairs(m) {
		t.Errorf("scanned %d pairs, want %d", res.Stats.Combinations, combin.Pairs(m))
	}
	if res.Space != nil {
		t.Errorf("unsharded scan recorded a Space: %+v", res.Space)
	}
	for i := 0; i < m; i++ {
		if !res.Seen[i] {
			t.Errorf("SNP %d unseen by a full scan", i)
			continue
		}
		if res.Best[i] != best[i] {
			t.Errorf("SNP %d best = %g, brute force %g", i, res.Best[i], best[i])
		}
	}

	pairs, err := s.RunPairs(Options{Workers: 2, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopPairs) != len(pairs.TopK) {
		t.Fatalf("seed list %d entries, pair search %d", len(res.TopPairs), len(pairs.TopK))
	}
	for i := range res.TopPairs {
		if res.TopPairs[i] != pairs.TopK[i] {
			t.Errorf("seed[%d] = %+v, pair search %+v", i, res.TopPairs[i], pairs.TopK[i])
		}
	}
}

// TestPairScreenShardedMergeMatchesFull: shards of the pair-rank
// space, merged elementwise (best-of per SNP, seed lists re-ranked),
// reproduce the full scan — the property cluster coordinators rely on
// when they run stage 1 as its own sharded phase.
func TestPairScreenShardedMergeMatchesFull(t *testing.T) {
	const m = 18
	mx := randomMatrix(301, m, 140)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	full, err := s.RunPairScreen(Options{TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{2, 3, 5} {
		best := make([]float64, m)
		seen := make([]bool, m)
		merged := NewTopK(obj, 4)
		var combos int64
		for i := 0; i < count; i++ {
			res, err := s.RunPairScreen(Options{TopK: 4,
				Shard: &sched.Shard{Index: i, Count: count}})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, count, err)
			}
			if res.Space == nil {
				t.Fatalf("shard %d/%d: no Space recorded", i, count)
			}
			combos += res.Stats.Combinations
			for k := 0; k < m; k++ {
				if !res.Seen[k] {
					continue
				}
				if !seen[k] || obj.Better(res.Best[k], best[k]) {
					best[k], seen[k] = res.Best[k], true
				}
			}
			for _, c := range res.TopPairs {
				merged.Offer(c)
			}
		}
		if combos != full.Stats.Combinations {
			t.Errorf("%d shards scanned %d pairs, full %d", count, combos, full.Stats.Combinations)
		}
		for k := 0; k < m; k++ {
			if seen[k] != full.Seen[k] || best[k] != full.Best[k] {
				t.Errorf("%d shards: SNP %d merged (%g,%v), full (%g,%v)",
					count, k, best[k], seen[k], full.Best[k], full.Seen[k])
			}
		}
		if len(merged.items) != len(full.TopPairs) {
			t.Fatalf("%d shards merge %d seeds, full %d", count, len(merged.items), len(full.TopPairs))
		}
		for i := range merged.items {
			if merged.items[i] != full.TopPairs[i] {
				t.Errorf("%d shards: seed[%d] = %+v, full %+v", count, i, merged.items[i], full.TopPairs[i])
			}
		}
	}
}

// TestSubsetValidation: the remap layer rejects malformed column
// lists loudly instead of building a corrupt sub-dataset.
func TestSubsetValidation(t *testing.T) {
	mx := randomMatrix(302, 10, 90)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{
		nil,
		{4},
		{0, 1},     // fewer than a triple needs
		{0, 5, 10}, // out of range high
		{-1, 2, 4}, // out of range low
		{3, 3, 5},  // duplicate
		{4, 2, 7},  // not increasing
	} {
		if _, err := s.Subset(cols); err == nil {
			t.Errorf("Subset(%v) accepted", cols)
		}
	}
}

// TestSubsetSearchMatchesRestrictedBruteForce: a search over the
// subset searcher, with positions translated back through the column
// list, equals a brute-force scan of exactly the triples drawn from
// those columns on the original matrix — the stage-2 correctness
// property of the screened pipeline.
func TestSubsetSearchMatchesRestrictedBruteForce(t *testing.T) {
	const m = 16
	mx := randomMatrix(303, m, 120)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 2, 3, 7, 8, 11, 15}
	sub, err := s.Subset(cols)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	ref := NewTopK(obj, 5)
	combin.ForEachTriple(len(cols), func(a, b, c int) {
		tab := contingency.BuildReference(mx, cols[a], cols[b], cols[c])
		ref.Offer(Triple{I: cols[a], J: cols[b], K: cols[c]}.scored(obj.Score(&tab)))
	})
	want := ref.List()

	for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
		res, err := sub.Run(Options{Approach: a, TopK: 5})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.Stats.Combinations != combin.Triples(len(cols)) {
			t.Errorf("%v: scored %d triples, want C(%d,3) = %d",
				a, res.Stats.Combinations, len(cols), combin.Triples(len(cols)))
		}
		if len(res.TopK) != len(want) {
			t.Fatalf("%v: top-K %d entries, want %d", a, len(res.TopK), len(want))
		}
		for i, c := range res.TopK {
			tr := c.triple()
			got := Triple{I: cols[tr.I], J: cols[tr.J], K: cols[tr.K]}.scored(c.Score)
			if got != want[i] {
				t.Errorf("%v: TopK[%d] remaps to %+v, want %+v", a, i, got, want[i])
			}
		}
	}
}

// seededReference enumerates the triples RunSeeded must score: every
// triple containing at least one seed pair, minus those fully inside
// the subset mask, each exactly once.
func seededReference(m int, seeds []Pair, inSubset []bool) map[Triple]bool {
	isSeed := make(map[Pair]bool, len(seeds))
	for _, p := range seeds {
		isSeed[p] = true
	}
	want := make(map[Triple]bool)
	combin.ForEachTriple(m, func(i, j, k int) {
		if !isSeed[Pair{i, j}] && !isSeed[Pair{i, k}] && !isSeed[Pair{j, k}] {
			return
		}
		if inSubset != nil && inSubset[i] && inSubset[j] && inSubset[k] {
			return
		}
		want[Triple{I: i, J: j, K: k}] = true
	})
	return want
}

// TestSeededCoversEachExtensionOnce: the seeded stage-2 scan scores
// exactly the extension set — triples sharing a pair with the seed
// list, outside the survivor subset — and scores none of them twice,
// even when seeds overlap (two seeds inside one triple) or repeat
// (duplicate seed entries resolve to one canonical owner).
func TestSeededCoversEachExtensionOnce(t *testing.T) {
	const m = 14
	mx := randomMatrix(304, m, 110)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	// Subset {1,3,8}; seeds overlap on triple (1,3,5) and entry 3
	// duplicates entry 0. Triple (1,3,8) contains a seed but is fully
	// inside the subset, so stage 2 owns it and the scan must skip it.
	inSubset := make([]bool, m)
	for _, c := range []int{1, 3, 8} {
		inSubset[c] = true
	}
	seeds := []Pair{{1, 3}, {3, 5}, {2, 9}, {1, 3}}
	want := seededReference(m, seeds, inSubset)

	res, err := s.RunSeeded(seeds, inSubset, Options{Workers: 3, TopK: 2 * m * m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Combinations != int64(len(want)) {
		t.Errorf("scored %d extensions, reference has %d", res.Stats.Combinations, len(want))
	}
	if len(res.TopK) != len(want) {
		t.Fatalf("top-K holds %d candidates, reference has %d", len(res.TopK), len(want))
	}
	seenTriples := make(map[Triple]bool)
	for _, c := range res.TopK {
		if seenTriples[c.triple()] {
			t.Errorf("triple %+v scored twice", c.triple())
		}
		seenTriples[c.triple()] = true
		if !want[c.triple()] {
			t.Errorf("triple %+v outside the extension set", c.triple())
		}
		tab := contingency.BuildReference(mx, c.triple().I, c.triple().J, c.triple().K)
		if sc := obj.Score(&tab); sc != c.Score {
			t.Errorf("triple %+v score %g, reference %g", c.triple(), c.Score, sc)
		}
	}

	// A nil mask widens the set to every seed-bearing triple.
	wantAll := seededReference(m, seeds, nil)
	all, err := s.RunSeeded(seeds, nil, Options{Workers: 2, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if all.Stats.Combinations != int64(len(wantAll)) {
		t.Errorf("maskless scan scored %d, reference %d", all.Stats.Combinations, len(wantAll))
	}
}

// TestSeededShardedMatchesFull: shards of the dense seeds×M extension
// space merge back to the full seeded result. M is no multiple of 8, the
// seeds at SNPs 0, 7, 8 and M−1 cut the chunks of eight thirds at p.I, at
// p.J and at a seed's end, and 2, 3 and 5 shards cut seeds' runs
// mid-chunk.
func TestSeededShardedMatchesFull(t *testing.T) {
	const m = 13
	mx := randomMatrix(305, m, 100)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	inSubset := make([]bool, m)
	for _, c := range []int{0, 4, 6, 10} {
		inSubset[c] = true
	}
	seeds := []Pair{{0, 4}, {2, 7}, {5, 11}, {0, 7}, {7, 8}, {8, m - 1}}
	full, err := s.RunSeeded(seeds, inSubset, Options{TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{2, 3, 5} {
		merged := NewTopK(obj, 6)
		var combos int64
		for i := 0; i < count; i++ {
			res, err := s.RunSeeded(seeds, inSubset, Options{TopK: 6,
				Shard: &sched.Shard{Index: i, Count: count}})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, count, err)
			}
			combos += res.Stats.Combinations
			for _, c := range res.TopK {
				merged.Offer(c)
			}
		}
		if combos != full.Stats.Combinations {
			t.Errorf("%d shards scored %d extensions, full %d", count, combos, full.Stats.Combinations)
		}
		got := merged.List()
		if len(got) != len(full.TopK) {
			t.Fatalf("%d shards merge %d candidates, full %d", count, len(got), len(full.TopK))
		}
		for i := range got {
			if got[i] != full.TopK[i] {
				t.Errorf("%d shards: TopK[%d] = %+v, full %+v", count, i, got[i], full.TopK[i])
			}
		}
	}
}

// TestSeededInvalidInputs: malformed seeds and masks fail at the
// door, before any worker starts.
func TestSeededInvalidInputs(t *testing.T) {
	const m = 8
	mx := randomMatrix(306, m, 80)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	for _, seeds := range [][]Pair{
		{{3, 3}},  // i == j
		{{5, 2}},  // inverted
		{{-1, 2}}, // negative
		{{0, m}},  // out of range
	} {
		if _, err := s.RunSeeded(seeds, nil, Options{TopK: 2}); err == nil {
			t.Errorf("seeds %v accepted", seeds)
		}
	}
	if _, err := s.RunSeeded([]Pair{{0, 1}}, make([]bool, m-1), Options{TopK: 2}); err == nil {
		t.Error("short subset mask accepted")
	}
}
