package permtest

import (
	"math/rand"
	"slices"
	"testing"

	"trigene/internal/bitvec"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/score"
)

// exitRef replays the early exit of K2's scoring from tables counted one
// sample at a time, like K's: permutations [offset, offset+count) in
// groups of contingency.Lanes from offset; every lane of a group adds
// score.K2Term row by row, and the group stops after the first row at
// which stop holds for every lane. It returns the lanes whose final
// partial sum ties or beats obs and the rows the groups scored (lanes ×
// rows). stop is "sum > obs" for the kernel; a different one shows what
// a mistaken kernel would report.
func exitRef(mx *dataset.Matrix, snps []int, lf *score.LnFact, obs float64, seed int64, offset, count int, stop func(sum, obs float64) bool) (hits int, rows int64) {
	const pass = contingency.Lanes
	n := mx.Samples()
	cells := contingency.CellsK(len(snps))
	combos := make([]int, n)
	totals := make([]int, cells)
	for s := range combos {
		for _, snp := range snps {
			combos[s] = combos[s]*3 + int(mx.Geno(snp, s))
		}
		totals[combos[s]]++
	}
	_, nCases := mx.ClassCounts()
	plane := make([]uint64, bitvec.WordsFor(n))
	cases := make([][]int, pass)
	for b := 0; b < count; b += pass {
		lanes := min(pass, count-b)
		for l := 0; l < lanes; l++ {
			casePlane(plane, n, nCases, seed, offset+b+l)
			cases[l] = make([]int, cells)
			for s, c := range combos {
				cases[l][c] += int(plane[s>>6] >> (uint(s) & 63) & 1)
			}
		}
		sums := make([]float64, lanes)
		for cell := 0; cell < cells; cell++ {
			done := true
			for l := range sums {
				sums[l] += score.K2Term(lf, totals[cell]-cases[l][cell], cases[l][cell])
				done = done && stop(sums[l], obs)
			}
			rows += int64(lanes)
			if done {
				break
			}
		}
		for _, s := range sums {
			if s <= obs {
				hits++
			}
		}
	}
	return hits, rows
}

// split cuts [0, total) into ways contiguous ranges of uneven sizes.
func split(total, ways int) [][2]int {
	var out [][2]int
	lo := 0
	for w := 0; w < ways; w++ {
		hi := total * (w + 1) * (w + 2) / (ways * (ways + 1))
		if hi > lo {
			out = append(out, [2]int{lo, hi - lo})
		}
		lo = hi
	}
	return out
}

// lowMAFMatrix draws m SNPs of minor allele frequency 0.05–0.35 over n
// samples and a random phenotype: at n ≈ 24 most tables have a handful of
// small rows, so permuted K2 sums tie the observed score, at the last
// row and before it.
func lowMAFMatrix(seed int64, m, n int) *dataset.Matrix {
	r := rand.New(rand.NewSource(seed))
	mx := dataset.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		maf := 0.05 + 0.3*r.Float64()
		for j := 0; j < n; j++ {
			g := 0
			if r.Float64() < maf {
				g++
			}
			if r.Float64() < maf {
				g++
			}
			mx.SetGeno(i, j, uint8(g))
		}
	}
	for j := 0; j < n; j++ {
		mx.SetPhen(j, uint8(r.Intn(2)))
	}
	return mx
}

// TestKAllEarlyExitMatchesK: under K2 the kernel stops scoring a group of
// eight permuted tables once none of them can tie or beat the observed
// score. KAll and KAllRange — whole, and split 1, 3 and 7 ways and summed
// — must give the scalar K's observed scores and hit counts, and score
// exactly the rows exitRef says, on candidates that stop within a few
// rows (the planted triple, two planted SNPs and a noise one), on ones
// whose permutations are hits about half of the time and run every row,
// on a monomorphic SNP's empty rows, and at 24 samples where permuted
// sums tie the observed one — before the last row too, where a kernel
// stopping at sum ≥ obs would miscount. MI and Gini, next to it, score
// every row.
func TestKAllEarlyExitMatchesK(t *testing.T) {
	it := &dataset.Interaction{SNPs: [3]int{2, 8, 14}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)}
	planted, err := dataset.Generate(dataset.GenConfig{
		SNPs: 16, Samples: 600, Seed: 40, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < planted.Samples(); s++ {
		planted.SetGeno(5, s, 0) // monomorphic: two thirds of its tables' rows are empty
	}
	cases := []struct {
		name       string
		mx         *dataset.Matrix
		candidates [][]int
		perms      int
		early      []int // candidates whose permutations must stop before the last row
		median     []int // candidates whose hits must be 20–80 % of the permutations
		tieBefore  []int // candidates on which stopping at sum ≥ obs must change a hit count
	}{
		{
			name: "planted",
			mx:   planted,
			candidates: [][]int{
				{2, 8, 14}, {2, 8, 11}, {2, 8}, {2, 5, 8, 14}, {5, 9},
				{0, 3, 9}, {1, 4, 10}, {6, 7, 12}, {3, 11}, {0, 4, 7, 10},
			},
			perms:  203,
			early:  []int{0, 1, 2, 3},
			median: []int{5},
		},
		{
			name:       "tiny",
			mx:         lowMAFMatrix(1, 12, 24),
			candidates: [][]int{{0, 7}, {1, 9}, {0, 11}, {0, 7, 11}, {1, 3, 7, 11}, {2, 5}},
			perms:      397,
			tieBefore:  []int{1},
		},
	}
	for _, tc := range cases {
		mx := tc.mx
		planes := planesOf(mx, tc.candidates)
		k2 := score.NewK2(mx.Samples())
		var k2Want []*Result
		for _, obj := range []score.Objective{k2, score.MIObjective{}, score.GiniObjective{}} {
			cfg := Config{Permutations: tc.perms, Seed: 17, Workers: 2, Objective: obj}
			want := make([]*Result, len(tc.candidates))
			for i, snps := range tc.candidates {
				if want[i], err = K(mx, snps, cfg); err != nil {
					t.Fatal(err)
				}
			}
			if obj == score.Objective(k2) {
				k2Want = want
			}
			got, err := KAll(planes, tc.candidates, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if *got[i] != *want[i] {
					t.Errorf("%s %s %v: KAll %+v != K %+v", tc.name, obj.Name(), tc.candidates[i], got[i], want[i])
				}
			}

			for _, ways := range []int{1, 3, 7} {
				hits := make([]int, len(tc.candidates))
				var rows RowTally
				var wantRows int64
				for _, r := range split(tc.perms, ways) {
					rr, err := KAllRange(planes, tc.candidates, r[0], r[1], cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i, h := range rr.Hits {
						hits[i] += h
						if rr.Observed[i] != want[i].Observed {
							t.Errorf("%s %s %v range %v: observed %v != %v", tc.name, obj.Name(), tc.candidates[i], r, rr.Observed[i], want[i].Observed)
						}
					}
					rows.Counted += rr.Rows.Counted
					rows.Total += rr.Rows.Total
					for i, snps := range tc.candidates {
						if obj != score.Objective(k2) {
							wantRows += int64(r[1] * contingency.CellsK(len(snps)))
							continue
						}
						_, rows := exitRef(mx, snps, k2.LnFact(), want[i].Observed, cfg.Seed, r[0], r[1],
							func(sum, obs float64) bool { return sum > obs })
						wantRows += rows
					}
				}
				for i := range hits {
					if hits[i] != want[i].AsGoodOrBetter {
						t.Errorf("%s %s %v split %d ways: hits %d != K's %d", tc.name, obj.Name(), tc.candidates[i], ways, hits[i], want[i].AsGoodOrBetter)
					}
				}
				if rows.Counted != wantRows {
					t.Errorf("%s %s split %d ways: %d rows counted, want %d", tc.name, obj.Name(), ways, rows.Counted, wantRows)
				}
				var total int64
				for _, snps := range tc.candidates {
					total += int64(tc.perms * contingency.CellsK(len(snps)))
				}
				if rows.Total != total {
					t.Errorf("%s %s split %d ways: rows total %d, want %d", tc.name, obj.Name(), ways, rows.Total, total)
				}
			}
		}

		// The data must hold what the test is about.
		for _, i := range tc.early {
			_, rows := exitRef(mx, tc.candidates[i], k2.LnFact(), k2Want[i].Observed, 17, 0, tc.perms,
				func(sum, obs float64) bool { return sum > obs })
			if full := int64(tc.perms * contingency.CellsK(len(tc.candidates[i]))); rows >= full {
				t.Errorf("%s %v: no pass stops early (%d of %d rows)", tc.name, tc.candidates[i], rows, full)
			}
		}
		for _, i := range tc.median {
			if f := float64(k2Want[i].AsGoodOrBetter) / float64(tc.perms); f < 0.2 || f > 0.8 {
				t.Errorf("%s %v: %.2f of the permutations are hits, want about half", tc.name, tc.candidates[i], f)
			}
		}
		for _, i := range tc.tieBefore {
			tieStop, _ := exitRef(mx, tc.candidates[i], k2.LnFact(), k2Want[i].Observed, 17, 0, tc.perms,
				func(sum, obs float64) bool { return sum >= obs })
			if tieStop == k2Want[i].AsGoodOrBetter {
				t.Errorf("%s %v: stopping at sum >= obs changes no hit count (%d)", tc.name, tc.candidates[i], tieStop)
			}
		}
	}
}

// BenchmarkKAll times a KAll call of 8 candidates and 1200 permutations at
// 16384 samples, one worker, on the three kinds of candidate a search
// hands the test: the planted triple and triples holding two of its
// SNPs (planted: each group of eight stops within a few rows), triples of
// one weakly planted SNP and noise (weak), and triples of noise (null:
// about half the permutations are hits and run every row). It reports
// permutations per second and the mean row at which a permutation's
// table stopped being scored (27 = never early). Counting costs the same
// for all three now; only scoring stops early.
func BenchmarkKAll(b *testing.B) {
	const n, perms = 16384, 1200
	it := &dataset.Interaction{SNPs: [3]int{2, 9, 17}, Penetrance: dataset.ThresholdPenetrance(3, 0.1, 0.9)}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 32, Samples: n, Seed: 48, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		b.Fatal(err)
	}
	sets := []struct {
		name       string
		candidates [][]int
	}{
		{"planted", [][]int{{2, 9, 17}, {2, 9, 4}, {2, 9, 11}, {2, 9, 25}, {2, 17, 5}, {2, 17, 20}, {9, 17, 0}, {9, 17, 30}}},
		{"weak", [][]int{{2, 4, 5}, {2, 11, 12}, {9, 20, 21}, {9, 25, 26}, {17, 0, 1}, {17, 30, 31}, {2, 6, 7}, {9, 13, 14}}},
		{"null", [][]int{{0, 1, 3}, {4, 5, 6}, {7, 8, 10}, {11, 12, 13}, {14, 15, 16}, {18, 19, 20}, {21, 22, 23}, {24, 26, 27}}},
	}
	for _, set := range sets {
		for _, c := range set.candidates {
			slices.Sort(c)
		}
		b.Run(set.name, func(b *testing.B) {
			planes := planesOf(mx, set.candidates)
			cfg := Config{Seed: 1, Workers: 1}
			var rows RowTally
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr, err := KAllRange(planes, set.candidates, 0, perms, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rows = rr.Rows
			}
			b.ReportMetric(float64(perms)*float64(b.N)/b.Elapsed().Seconds(), "perm/s")
			b.ReportMetric(27*float64(rows.Counted)/float64(rows.Total), "mean-exit-row")
		})
	}
}

// BenchmarkKAllTile times what a cluster worker runs for one tile of a
// permutation job: KAllRange of 8 candidates over 125 permutations at
// 8192 samples on two workers, its set-up (the candidates' cell lists)
// included.
func BenchmarkKAllTile(b *testing.B) {
	const n, perms = 8192, 125
	it := &dataset.Interaction{SNPs: [3]int{2, 9, 17}, Penetrance: dataset.ThresholdPenetrance(3, 0.1, 0.9)}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 32, Samples: n, Seed: 49, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		b.Fatal(err)
	}
	candidates := [][]int{{2, 9, 17}, {2, 4, 9}, {2, 9, 11}, {2, 9, 25}, {2, 5, 17}, {0, 1, 3}, {4, 5, 6}, {7, 8, 10}}
	planes := planesOf(mx, candidates)
	cfg := Config{Seed: 1, Workers: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KAllRange(planes, candidates, 125*i%8000, perms, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perms)*float64(b.N)/b.Elapsed().Seconds(), "perm/s")
}
