package engine

import (
	"slices"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/score"
)

// TestBuildSplitKMatchesReference holds the split builder to the
// sample-by-sample reference at every order, on sample counts on both
// sides of a word boundary and ragged ones (so padded last words), with a
// class of one sample, monomorphic SNPs (all genotype 2, all genotype 0)
// and runs of adjacent SNPs; at order 3 BuildSplit, its table form, must
// give the same cells.
func TestBuildSplitKMatchesReference(t *testing.T) {
	const m = 9
	for _, n := range []int{1, 63, 64, 65, 140, 777} {
		for _, oneCase := range []bool{false, true} {
			mx := randomMatrix(140+int64(n), m, n)
			if oneCase {
				for j := 0; j < n; j++ {
					mx.SetPhen(j, dataset.Control)
				}
				mx.SetPhen(n/2, dataset.Case)
			}
			for j := range mx.Row(0) {
				mx.Row(0)[j], mx.Row(5)[j] = 2, 0
			}
			s := dataset.SplitBinarize(mx)
			for order := 2; order <= contingency.MaxOrder; order++ {
				first, last, spread := make([]int, order), make([]int, order), make([]int, order)
				for i := range first {
					first[i], last[i], spread[i] = i, m-order+i, i*(m-1)/(order-1)
				}
				for _, snps := range [][]int{first, last, spread} {
					cells := contingency.CellsK(order)
					gotC, gotK := make([]int32, cells), make([]int32, cells)
					wantC, wantK := make([]int32, cells), make([]int32, cells)
					if err := contingency.BuildSplitK(s, snps, gotC, gotK); err != nil {
						t.Fatal(err)
					}
					if err := contingency.BuildReferenceK(mx, snps, wantC, wantK); err != nil {
						t.Fatal(err)
					}
					for i := range gotC {
						if gotC[i] != wantC[i] || gotK[i] != wantK[i] {
							t.Fatalf("n=%d one case=%v snps %v cell %d: (%d,%d), want (%d,%d)",
								n, oneCase, snps, i, gotC[i], gotK[i], wantC[i], wantK[i])
						}
					}
					if order == 3 {
						tab := contingency.BuildSplit(s, snps[0], snps[1], snps[2])
						if !slices.Equal(tab.Counts[dataset.Control][:], wantC) || !slices.Equal(tab.Counts[dataset.Case][:], wantK) {
							t.Fatalf("n=%d one case=%v snps %v: BuildSplit differs from the reference", n, oneCase, snps)
						}
					}
				}
			}
		}
	}
}

// TestBuildSplitKOrder3MatchesTableBuilder checks that BuildSplit, the
// fixed-size table form, gives the same cells as BuildSplitK at order 3.
func TestBuildSplitKOrder3MatchesTableBuilder(t *testing.T) {
	mx := randomMatrix(141, 7, 130)
	s := dataset.SplitBinarize(mx)
	tab := contingency.BuildSplit(s, 1, 3, 6)
	ctrl, cases := make([]int32, 27), make([]int32, 27)
	if err := contingency.BuildSplitK(s, []int{1, 3, 6}, ctrl, cases); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 27; i++ {
		if ctrl[i] != tab.Counts[dataset.Control][i] || cases[i] != tab.Counts[dataset.Case][i] {
			t.Fatalf("cell %d differs from specialized builder", i)
		}
	}
}

func TestRunKOrder3MatchesRun(t *testing.T) {
	mx := randomMatrix(142, 14, 160)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunK(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.Score != want.Best.Score ||
		got.Best.SNPs[0] != want.Best.triple().I ||
		got.Best.SNPs[1] != want.Best.triple().J ||
		got.Best.SNPs[2] != want.Best.triple().K {
		t.Errorf("RunK(3) best %v %.6f, Run best %v %.6f",
			got.Best.SNPs, got.Best.Score, want.Best.triple(), want.Best.Score)
	}
}

func TestRunKOrder2MatchesRunPairs(t *testing.T) {
	mx := randomMatrix(143, 16, 140)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.RunPairs(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunK(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.SNPs != want.Best.SNPs {
		t.Errorf("RunK(2) best %v, RunPairs best %v", got.Best.SNPs, want.Best.SNPs)
	}
	// Scores use different cell widths (9 embedded in 27 vs pure 9)
	// but must be numerically identical: empty cells contribute zero.
	if got.Best.Score != want.Best.Score {
		t.Errorf("RunK(2) score %.9f != RunPairs %.9f", got.Best.Score, want.Best.Score)
	}
}

func TestRunKOrder4BruteForce(t *testing.T) {
	mx := randomMatrix(144, 9, 90)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	// Brute force via the reference builder.
	bestScore := obj.Worst()
	var bestSNPs []int
	comb := []int{0, 1, 2, 3}
	for {
		ctrl, cases := make([]int32, 81), make([]int32, 81)
		if err := contingency.BuildReferenceK(mx, comb, ctrl, cases); err != nil {
			t.Fatal(err)
		}
		sc := obj.ScoreCells(ctrl, cases)
		if obj.Better(sc, bestScore) {
			bestScore = sc
			bestSNPs = append([]int(nil), comb...)
		}
		if !combin.NextK(comb, 9) {
			break
		}
	}
	got, err := s.RunK(4, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.Score != bestScore {
		t.Errorf("RunK(4) score %.9f, brute force %.9f", got.Best.Score, bestScore)
	}
	for i := range bestSNPs {
		if got.Best.SNPs[i] != bestSNPs[i] {
			t.Errorf("RunK(4) best %v, brute force %v", got.Best.SNPs, bestSNPs)
			break
		}
	}
	if got.Stats.Combinations != combin.Binomial(9, 4) {
		t.Errorf("combinations %d", got.Stats.Combinations)
	}
}

func TestRunKWorkerInvariance(t *testing.T) {
	mx := randomMatrix(145, 12, 100)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.RunK(4, Options{Workers: 1, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		res, err := s.RunK(4, Options{Workers: workers, TopK: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.TopK {
			if res.TopK[i].Score != base.TopK[i].Score {
				t.Errorf("workers=%d TopK[%d] differs", workers, i)
			}
		}
	}
}

func TestRunKValidation(t *testing.T) {
	mx := randomMatrix(146, 8, 50)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunK(1, Options{}); err == nil {
		t.Error("order 1 accepted")
	}
	if _, err := s.RunK(contingency.MaxOrder+1, Options{}); err == nil {
		t.Error("excessive order accepted")
	}
	if _, err := s.RunK(9, Options{}); err == nil {
		t.Error("order beyond SNP count accepted")
	}
}

func TestCellsKBounds(t *testing.T) {
	if contingency.CellsK(2) != 9 || contingency.CellsK(3) != 27 || contingency.CellsK(4) != 81 {
		t.Error("CellsK wrong")
	}
	for _, bad := range []int{0, contingency.MaxOrder + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CellsK(%d) should panic", bad)
				}
			}()
			contingency.CellsK(bad)
		}()
	}
	// Builder argument validation.
	mx := randomMatrix(147, 5, 40)
	s := dataset.SplitBinarize(mx)
	if err := contingency.BuildSplitK(s, []int{0}, make([]int32, 3), make([]int32, 3)); err == nil {
		t.Error("order 1 accepted by builder")
	}
	if err := contingency.BuildSplitK(s, []int{0, 1}, make([]int32, 5), make([]int32, 9)); err == nil {
		t.Error("wrong cell slice length accepted")
	}
	if err := contingency.BuildReferenceK(mx, []int{0, 1}, make([]int32, 5), make([]int32, 9)); err == nil {
		t.Error("reference builder accepted bad lengths")
	}
}
