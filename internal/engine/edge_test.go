package engine

import (
	"fmt"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/score"
)

// Edge-case hardening: degenerate genotype distributions, minimal
// dimensions, and extreme class imbalance must not break any pipeline.

func TestMonomorphicSNPs(t *testing.T) {
	// Every sample carries genotype 0 at every SNP: all counts land in
	// cell (0,0,0), split by class.
	mx := dataset.NewMatrix(6, 100)
	for j := 0; j < 100; j++ {
		mx.SetPhen(j, uint8(j%2))
	}
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	tab := contingency.BuildSplit(s.Split(), 0, 1, 2)
	if tab.Cell(dataset.Control, 0, 0, 0) != 50 || tab.Cell(dataset.Case, 0, 0, 0) != 50 {
		t.Fatalf("monomorphic table wrong:\n%s", tab.String())
	}
	for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
		res, err := s.Run(Options{Approach: a})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		// All triples tie; the lexicographic tie-break picks (0,1,2).
		if res.Best.triple() != (Triple{0, 1, 2}) {
			t.Errorf("%v: best %v, want (0,1,2)", a, res.Best.triple())
		}
	}
}

func TestAllGenotypeTwoSNPs(t *testing.T) {
	// All genotype 2 exercises the NOR-inferred plane plus the padding
	// correction maximally: the derived plane is all ones.
	mx := dataset.NewMatrix(5, 77) // odd N: padded last word
	for i := 0; i < 5; i++ {
		row := mx.Row(i)
		for j := range row {
			row[j] = 2
		}
	}
	for j := 0; j < 77; j++ {
		mx.SetPhen(j, uint8(j%2))
	}
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	tab := contingency.BuildSplit(s.Split(), 0, 2, 4)
	want := contingency.BuildReference(mx, 0, 2, 4)
	if !tab.Equal(&want) {
		t.Fatalf("all-g2 table differs:\n%s", tab.String())
	}
	if _, err := s.Run(Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestExtremeClassImbalance(t *testing.T) {
	// One case, everyone else control.
	mx := randomMatrix(150, 10, 200)
	for j := 0; j < 200; j++ {
		mx.SetPhen(j, dataset.Control)
	}
	mx.SetPhen(137, dataset.Case)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Run(Options{Approach: V2Split})
	if err != nil {
		t.Fatal(err)
	}
	v3f, err := s.Run(Options{Approach: V3Fused})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Best != v3f.Best {
		t.Error("imbalanced dataset breaks approach equivalence")
	}
}

func TestMinimalDimensions(t *testing.T) {
	// M = 3 has exactly one combination; N = 2 is the smallest
	// two-class sample set.
	mx := dataset.NewMatrix(3, 2)
	mx.SetGeno(0, 0, 1)
	mx.SetGeno(1, 1, 2)
	mx.SetPhen(1, dataset.Case)
	res, err := Search(mx, Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Combinations != 1 || len(res.TopK) != 1 {
		t.Fatalf("M=3: combos %d, topK %d", res.Stats.Combinations, len(res.TopK))
	}
	if res.Best.triple() != (Triple{0, 1, 2}) {
		t.Errorf("best %v", res.Best.triple())
	}
}

func TestSampleCountOfOneWordBoundary(t *testing.T) {
	// Class sizes of exactly 64 and 65 straddle the word boundary.
	for _, n := range []int{128, 129, 130} {
		mx := randomMatrix(151, 8, n)
		s, err := New(mx)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := s.Run(Options{Approach: V2Split})
		if err != nil {
			t.Fatal(err)
		}
		v3f, err := s.Run(Options{Approach: V3Fused})
		if err != nil {
			t.Fatal(err)
		}
		if v2.Best != v3f.Best {
			t.Errorf("n=%d: V2/V3F disagree", n)
		}
	}
}

func TestWorkersExceedWork(t *testing.T) {
	mx := randomMatrix(152, 4, 50) // 4 combinations, 64 workers
	res, err := Search(mx, Options{Workers: 64, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 4 {
		t.Errorf("TopK = %d, want 4", len(res.TopK))
	}
}

// TestFusedParityEdgeShapes runs the tuned fused pipeline (V4F), its
// pure-Go oracle pipeline (V3F) and a brute-force ranking over
// contingency.BuildReference on the shapes where the fused loop's tile
// handling could go wrong: sample counts that are not a multiple of 64,
// class planes shorter than one 8-word vector, a class of a single
// sample, fewer SNPs than one block or than one vector has lanes, class
// planes of exactly one vector with no padding, planes of many vectors
// with a ragged last one, and planes of exactly one 8-word tile, one
// word more, two and a half tiles and one tile next to three — each at
// the default tile, where every plane of these shapes is one pass, and
// at word tiles that split the planes raggedly, where the loop adds the
// tiles' passes into its lane-table bank; under K2, MI and Gini, because
// a score moves in its last bits if the lane tables' rows are summed in
// another order or row 26 loses its pad correction. (A single-class
// phenotype never reaches a kernel: New refuses it, see
// TestNewRejectsBadDatasets.)
func TestFusedParityEdgeShapes(t *testing.T) {
	shapes := append(append(edgeShapes(), shortPlaneShapes()...), tiledShapes()...)
	const topK = 5
	for _, sh := range shapes {
		s, err := New(sh.mx)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		for _, obj := range []score.Objective{score.NewK2(sh.mx.Samples()), score.MIObjective{}, score.GiniObjective{}} {
			ref := NewTopK(obj, topK)
			combin.ForEachTriple(sh.mx.SNPs(), func(i, j, k int) {
				tab := contingency.BuildReference(sh.mx, i, j, k)
				ref.Offer(Triple{i, j, k}.scored(obj.Score(&tab)))
			})
			want := ref.List()
			for _, bw := range []int{0, 3, 8, 13} { // 0: the FusedTileParams default
				for _, a := range []Approach{V3Fused, V4Fused} {
					o := Options{Approach: a, Objective: obj, TopK: topK, Workers: 2, BlockWords: bw}
					name := fmt.Sprintf("%s/%s %v bw=%d", sh.name, obj.Name(), a, bw)
					res, err := s.Run(o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Stats.Combinations != combin.Triples(sh.mx.SNPs()) {
						t.Errorf("%s: scored %d combinations, want %d", name, res.Stats.Combinations, combin.Triples(sh.mx.SNPs()))
					}
					if len(res.TopK) != len(want) {
						t.Fatalf("%s: %d candidates, reference %d", name, len(res.TopK), len(want))
					}
					for i := range want {
						if res.TopK[i] != want[i] {
							t.Errorf("%s: TopK[%d] = %+v, reference %+v", name, i, res.TopK[i], want[i])
						}
					}
				}
			}
		}
	}
}

// edgeShapes are the datasets the vector kernels' tail handling is
// checked on.
func edgeShapes() []edgeShape {
	oneCase := randomMatrix(151, 10, 200)
	for j := 0; j < 200; j++ {
		oneCase.SetPhen(j, dataset.Control)
	}
	oneCase.SetPhen(137, dataset.Case)
	balanced := randomMatrix(152, 9, 1024)
	for j := 0; j < 1024; j++ {
		balanced.SetPhen(j, uint8(j%2))
	}
	return []edgeShape{
		{"333 samples, sub-vector planes", randomMatrix(153, 24, 333)},
		{"one case", oneCase},
		{"3 SNPs, fewer than a block", randomMatrix(154, 3, 1500)},
		{"512+512 samples, one full vector", balanced},
		{"4133 samples, ragged vectors", randomMatrix(155, 14, 4133)},
	}
}

type edgeShape struct {
	name string
	mx   *dataset.Matrix
}

// TestPairAndSeededParityEdgeShapes is the engine-level parity run of
// the pair kernel and of the seeded extension's PairBlock path, on the
// same shapes and under all three objectives: RunPairs' ranking and
// RunPairScreen's per-SNP bests and seed list must be bit-equal to a
// brute-force pass over contingency.BuildReferencePair scored with the
// objective's 27-row form, and every triple RunSeeded scores must carry
// the score of contingency.BuildReference on the sorted triple — for
// seed pairs whose third SNPs all sort above them, all between, all
// below, and on every side. A K2 or MI score moves in its last bits if
// the rows are summed in another order, so this fails if the nine-row
// scorers or the seeded row permutation drift; the ragged classes make
// it fail if row 26 loses its pad correction on the way.
func TestPairAndSeededParityEdgeShapes(t *testing.T) {
	const topK = 6
	for _, sh := range edgeShapes() {
		s, err := New(sh.mx)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		m := sh.mx.SNPs()
		for _, obj := range []score.Objective{score.NewK2(sh.mx.Samples()), score.MIObjective{}, score.GiniObjective{}} {
			name := sh.name + "/" + obj.Name()
			refTop := NewTopK(obj, topK)
			best := make([]float64, m)
			seen := make([]bool, m)
			combin.ForEachPair(m, func(i, j int) {
				tab := contingency.BuildReferencePair(sh.mx, i, j)
				sc := obj.Score(&tab)
				refTop.Offer(Pair{i, j}.scored(sc))
				for _, snp := range [2]int{i, j} {
					if !seen[snp] || obj.Better(sc, best[snp]) {
						best[snp], seen[snp] = sc, true
					}
				}
			})
			pairs, err := s.RunPairs(Options{Objective: obj, TopK: topK, Workers: 2})
			if err != nil {
				t.Fatalf("%s: RunPairs: %v", name, err)
			}
			screen, err := s.RunPairScreen(Options{Objective: obj, TopK: topK, Workers: 3})
			if err != nil {
				t.Fatalf("%s: RunPairScreen: %v", name, err)
			}
			for what, got := range map[string][]Candidate{"RunPairs": pairs.TopK, "RunPairScreen": screen.TopPairs} {
				if len(got) != len(refTop.items) {
					t.Fatalf("%s: %s ranks %d pairs, reference %d", name, what, len(got), len(refTop.items))
				}
				for i, c := range got {
					if c != refTop.items[i] {
						t.Errorf("%s: %s [%d] = %+v, reference %+v", name, what, i, c, refTop.items[i])
					}
				}
			}
			for snp := 0; snp < m; snp++ {
				if !screen.Seen[snp] || screen.Best[snp] != best[snp] {
					t.Errorf("%s: SNP %d screen best (%v, seen %v), reference %v", name, snp, screen.Best[snp], screen.Seen[snp], best[snp])
				}
			}

			// Thirds above, between, below, and all three.
			tried := map[Pair]bool{}
			for _, seed := range []Pair{{0, 1}, {0, m - 1}, {m - 2, m - 1}, {m / 3, m - 1 - m/3}} {
				if seed.I >= seed.J || tried[seed] {
					continue
				}
				tried[seed] = true
				res, err := s.RunSeeded([]Pair{seed}, nil, Options{Objective: obj, TopK: m, Workers: 2})
				if err != nil {
					t.Fatalf("%s: RunSeeded(%v): %v", name, seed, err)
				}
				if len(res.TopK) != m-2 || res.Stats.Combinations != int64(m-2) {
					t.Fatalf("%s: seed %v extended to %d triples (%d scored), want %d", name, seed, len(res.TopK), res.Stats.Combinations, m-2)
				}
				for _, c := range res.TopK {
					tab := contingency.BuildReference(sh.mx, c.triple().I, c.triple().J, c.triple().K)
					if want := obj.Score(&tab); c.Score != want {
						t.Errorf("%s: seed %v triple %v scored %v, reference %v", name, seed, c.triple(), c.Score, want)
					}
				}
			}
		}
	}
}

// TestSeededPermutation pins the row permutation itself: each slot's
// map is a bijection on the 27 rows, a third SNP that sorts first needs
// none, and row 26 — (2,2,2), where the pad bits of the NOR-derived
// planes land — never moves, so one correction after permuting is right.
func TestSeededPermutation(t *testing.T) {
	for slot, perm := range seededPerm {
		var hit [contingency.Cells]bool
		for cell, src := range perm {
			if hit[src] {
				t.Errorf("slot %d: kernel row %d is used twice", slot, src)
			}
			hit[src] = true
			if slot == 0 && int(src) != cell {
				t.Errorf("slot 0: row %d comes from %d, want the identity", cell, src)
			}
		}
		if perm[contingency.Cells-1] != contingency.Cells-1 {
			t.Errorf("slot %d moves row 26 to %d", slot, perm[contingency.Cells-1])
		}
	}
	// Third SNP between the seed's: kernel row (gt, gi, gj) is sorted row (gi, gt, gj).
	if got := seededPerm[1][contingency.ComboIndex(0, 1, 2)]; int(got) != contingency.ComboIndex(1, 0, 2) {
		t.Errorf("slot 1: sorted row (0,1,2) comes from kernel row %d", got)
	}
	// Third SNP above both: kernel row (gt, gi, gj) is sorted row (gi, gj, gt).
	if got := seededPerm[2][contingency.ComboIndex(0, 1, 2)]; int(got) != contingency.ComboIndex(2, 0, 1) {
		t.Errorf("slot 2: sorted row (0,1,2) comes from kernel row %d", got)
	}
}
