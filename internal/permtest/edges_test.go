package permtest

import (
	"fmt"
	"testing"

	"trigene/internal/dataset"
	"trigene/internal/score"
)

// TestBlockSizing pins the block-size rule: the largest multiple of 64,
// at most 512, whose rows (B bits per sample) fit 512 KiB, no more than a
// worker's share of the range rounded up to 64, never under 64; and a
// worker's scratch at 16384 samples holds that block and little more.
func TestBlockSizing(t *testing.T) {
	const big = 1 << 20
	for _, tc := range []struct{ n, count, workers, want int }{
		{16384, big, 1, 256},
		{16384, 12000, 2, 256},
		{16385, big, 1, 192},
		{8192, big, 1, 512},
		{500, big, 1, 512},
		{70001, big, 1, 64},
		{8192, 125, 1, 128}, // a cluster tile on one worker
		{8192, 125, 2, 64},
		{8192, 300, 2, 192},
		{16384, 1, 8, 64},
	} {
		b := blockPerms(tc.n, tc.count, tc.workers)
		if b != tc.want {
			t.Errorf("n=%d count=%d workers=%d: block of %d, want %d", tc.n, tc.count, tc.workers, b, tc.want)
		}
		if b > 64 && tc.n*b/8 > blockBudget {
			t.Errorf("n=%d: a block of %d is %d bytes of rows", tc.n, b, tc.n*b/8)
		}
	}

	mx := nullMatrix(63, 6, 16384)
	candidates := [][]int{{0, 1, 2}, {3, 4}}
	c, err := Config{Workers: 2}.withDefaults(mx.Samples())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(planesOf(mx, candidates), candidates, c)
	if err != nil {
		t.Fatal(err)
	}
	lay := p.layout(blockPerms(mx.Samples(), 12000, 2))
	ps := getScratch(c, lay, len(candidates))
	rows := (len(ps.rows) - lay.r) * 8 // less the zero row
	all := rows + 8*(len(ps.slab)+len(ps.ctr)) + 32*(len(ps.cases)+len(ps.ctrl))
	if rows > blockBudget || all > 768<<10 {
		t.Errorf("a worker's scratch at 16384 samples: %d bytes of rows, %d in all; want at most 512 KiB and 768 KiB", rows, all)
	}
}

// oneOfClass makes sample 7 the only case (class = Case) or the only
// control of the matrix.
func oneOfClass(mx *dataset.Matrix, class uint8) *dataset.Matrix {
	for s := 0; s < mx.Samples(); s++ {
		mx.SetPhen(s, 1-class)
	}
	mx.SetPhen(7, class)
	return mx
}

// kHits is the scalar reference over permutations [offset, offset+count):
// K is a function of each permutation's index, so its hits over [0, a+b)
// less those over [0, a) are the range's.
type kHits map[string]*Result

func (kh kHits) rangeHits(t *testing.T, mx *dataset.Matrix, snps []int, cfg Config, offset, count int) (float64, int) {
	t.Helper()
	at := func(perms int) *Result {
		key := fmt.Sprint(cfg.Objective.Name(), snps, perms)
		if r, ok := kh[key]; ok {
			return r
		}
		c := cfg
		c.Permutations = perms
		r, err := K(mx, snps, c)
		if err != nil {
			t.Fatal(err)
		}
		kh[key] = r
		return r
	}
	end := at(offset + count)
	if offset == 0 {
		return end.Observed, end.AsGoodOrBetter
	}
	return end.Observed, end.AsGoodOrBetter - at(offset).AsGoodOrBetter
}

// TestKAllEdgeShapes holds KAllRange to the scalar K at the shapes a
// by-sample count could get wrong: cohorts below 64 samples and off a
// word boundary, a one-sample class either way, orders 2 to 7 under K2,
// MI and Gini, and ranges whose offsets and counts are multiples of
// neither 64 nor the block (1, 63, 65 and one more than a block), each
// whole and split 3 and 7 ways, on one worker and two.
func TestKAllEdgeShapes(t *testing.T) {
	shapes := []struct {
		name string
		mx   *dataset.Matrix
	}{
		{"n=40", nullMatrix(60, 9, 40)},
		{"n=1013", nullMatrix(61, 9, 1013)},
		{"one case", oneOfClass(nullMatrix(62, 9, 300), dataset.Case)},
		{"one control", oneOfClass(nullMatrix(64, 9, 130), dataset.Control)},
	}
	candidates := [][]int{{1, 4}, {0, 3, 7}, {2, 4, 6, 8}, {0, 1, 3, 5, 7}, {1, 2, 4, 6, 7, 8}, {0, 2, 3, 4, 5, 6, 8}}
	for _, sh := range shapes {
		mx := sh.mx
		planes := planesOf(mx, candidates)
		for _, obj := range []score.Objective{score.NewK2(mx.Samples()), score.MIObjective{}, score.GiniObjective{}} {
			ref := kHits{}
			for _, workers := range []int{1, 2} {
				cfg := Config{Seed: 23, Workers: workers, Objective: obj}
				b := blockPerms(mx.Samples(), 1<<20, workers)
				for _, rng := range [][2]int{{37, 1}, {101, 63}, {5, 65}, {45, b + 1}} {
					for _, ways := range []int{1, 3, 7} {
						hits := make([]int, len(candidates))
						for _, part := range split(rng[1], ways) {
							rr, err := KAllRange(planes, candidates, rng[0]+part[0], part[1], cfg)
							if err != nil {
								t.Fatal(err)
							}
							for i, snps := range candidates {
								hits[i] += rr.Hits[i]
								if obs, _ := ref.rangeHits(t, mx, snps, cfg, 0, 1); rr.Observed[i] != obs {
									t.Fatalf("%s %s %v: observed %v, K's %v", sh.name, obj.Name(), snps, rr.Observed[i], obs)
								}
							}
						}
						for i, snps := range candidates {
							if _, want := ref.rangeHits(t, mx, snps, cfg, rng[0], rng[1]); hits[i] != want {
								t.Errorf("%s %s %v workers=%d range %v split %d ways: %d hits, K's %d",
									sh.name, obj.Name(), snps, workers, rng, ways, hits[i], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestKAllDeepCell: at 70 001 samples a pair of monomorphic SNPs puts
// every sample in one cell, so its counter runs 17 levels deep (past a
// 16-bit count), and triples on them put most samples in one; hit counts
// and observed scores equal K's, whole and split.
func TestKAllDeepCell(t *testing.T) {
	const n = 70001
	mx := nullMatrix(65, 5, n)
	for s := 0; s < n; s++ {
		mx.SetGeno(0, s, 0)
		mx.SetGeno(1, s, 0)
	}
	candidates := [][]int{{0, 1}, {0, 1, 2}, {0, 3, 4}, {2, 3, 4}}
	planes := planesOf(mx, candidates)
	for _, obj := range []score.Objective{score.NewK2(n), score.MIObjective{}} {
		cfg := Config{Seed: 29, Workers: 2, Objective: obj}
		ref := kHits{}
		for _, ways := range []int{1, 3} {
			hits := make([]int, len(candidates))
			for _, part := range split(70, ways) {
				rr, err := KAllRange(planes, candidates, 3+part[0], part[1], cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, snps := range candidates {
					hits[i] += rr.Hits[i]
					if obs, _ := ref.rangeHits(t, mx, snps, cfg, 0, 1); rr.Observed[i] != obs {
						t.Fatalf("%s %v: observed %v, K's %v", obj.Name(), snps, rr.Observed[i], obs)
					}
				}
			}
			for i, snps := range candidates {
				if _, want := ref.rangeHits(t, mx, snps, cfg, 3, 70); hits[i] != want {
					t.Errorf("%s %v split %d ways: %d hits, K's %d", obj.Name(), snps, ways, hits[i], want)
				}
			}
		}
	}
}
