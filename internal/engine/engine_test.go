package engine

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/score"
)

// triple returns an order-3 candidate's SNPs.
func (c Candidate) triple() Triple { return Triple{I: c.SNPs[0], J: c.SNPs[1], K: c.SNPs[2]} }

func randomMatrix(seed int64, m, n int) *dataset.Matrix {
	r := rand.New(rand.NewSource(seed))
	mx := dataset.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := mx.Row(i)
		for j := range row {
			row[j] = uint8(r.Intn(3))
		}
	}
	// Guarantee both classes.
	for j := 0; j < n; j++ {
		mx.SetPhen(j, uint8(j%2))
	}
	return mx
}

func TestApproachParseAndString(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Approach
	}{
		{"V3F", V3Fused}, {"v3f", V3Fused}, {"V5", V3Fused}, {"fused-blocked", V3Fused},
		{"V4F", V4Fused}, {"v4f", V4Fused}, {"v6", V4Fused}, {"FUSED", V4Fused},
		{"fused-vector", V4Fused}, {" Fused ", V4Fused},
	} {
		got, err := ParseApproach(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseApproach(%q) = %v, %v", c.in, got, err)
		}
	}
	// V1..V4 name the simulated GPU's kernels; the CPU parses only its
	// own approaches.
	for _, in := range []string{"V9", "V1", "v2", "3", "V4", "naive", "split", "blocked", "vector"} {
		if _, err := ParseApproach(in); err == nil {
			t.Errorf("ParseApproach(%q) accepted", in)
		}
	}
	if V1Naive.String() != "V1" || V4Vector.String() != "V4" {
		t.Error("approach names wrong")
	}
	if V3Fused.String() != "V3F" || V4Fused.String() != "V4F" {
		t.Error("fused approach names wrong")
	}
	if Approach(9).String() == "" {
		t.Error("unknown approach should render")
	}
}

func TestTileParams(t *testing.T) {
	// The fused block is one lane group whatever the cache, claimed one
	// block triple (one aligned chunk of a run) at a time, and its word
	// tile is whole 8-word vectors, at least one.
	for _, l1 := range []int{1024, 32 << 10, 48 << 10} {
		if fbs, fbw := FusedTileParams(l1); fbs != contingency.Lanes || fbw < 8 || fbw%8 != 0 {
			t.Errorf("FusedTileParams(%d) = %d/%d, want BS %d and whole vectors", l1, fbs, fbw, contingency.Lanes)
		}
	}
	if _, fbw := FusedTileParams(32 << 10); fbw != 120 {
		t.Errorf("fused word tile for 32 KiB = %d, want 120", fbw)
	}
	s, err := New(randomMatrix(5, 40, 64))
	if err != nil {
		t.Fatal(err)
	}
	o, err := Options{}.withDefaults(64)
	if err != nil {
		t.Fatal(err)
	}
	if sp, bt, err := s.blockSpace(&o, 3, "blocked", "V4F"); err != nil || bt.nb != 5 || sp.src.Grain() != 1 {
		t.Errorf("40 SNPs make %d blocks claimed %d block triples at a time (%v), want 5 and 1", bt.nb, sp.src.Grain(), err)
	}
	for _, a := range []Approach{V3Fused, V4Fused} {
		if o, err := (Options{Approach: a}).withDefaults(64); err != nil || o.BlockWords != 120 {
			t.Errorf("%v default word tile %d, %v; want 120", a, o.BlockWords, err)
		}
	}
}

func TestFusedTileWords(t *testing.T) {
	// 32 KiB: half the budget less the 256 bytes of counted rows a pass
	// writes (eight rows of eight lanes), over the 128 bytes of x tile
	// per word of tile.
	if bw := fusedTileWords(32 << 10); bw != ((16<<10)-256)/128 {
		t.Errorf("fusedTileWords(32Ki) = %d, want %d", bw, ((16<<10)-256)/128)
	}
	if bw := fusedTileWords(48 << 10); bw != ((24<<10)-256)/128 {
		t.Errorf("fusedTileWords(48Ki) = %d, want %d", bw, ((24<<10)-256)/128)
	}
	// Tiny budgets clamp to 1.
	if fusedTileWords(128) != 1 {
		t.Error("tiny budget should clamp to one word")
	}
}

// referenceTopK ranks every triple of mx by obj from BuildReference's
// tables: the oracle top-k of an order-3 search.
func referenceTopK(mx *dataset.Matrix, obj score.Objective, k int) []Candidate {
	top := NewTopK(obj, k)
	combin.ForEachTriple(mx.SNPs(), func(i, j, l int) {
		tab := contingency.BuildReference(mx, i, j, l)
		top.Offer(Triple{i, j, l}.scored(obj.Score(&tab)))
	})
	return top.List()
}

func TestAllApproachesAgree(t *testing.T) {
	mx := randomMatrix(60, 24, 333)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTopK(mx, score.NewK2(mx.Samples()), 5)
	for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
		got, err := s.Run(Options{Approach: a, Workers: 3, TopK: 5})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if len(got.TopK) != len(want) {
			t.Fatalf("%v TopK length %d != %d", a, len(got.TopK), len(want))
		}
		for i := range got.TopK {
			if got.TopK[i] != want[i] {
				t.Errorf("%v TopK[%d] = %+v, want %+v", a, i, got.TopK[i], want[i])
			}
		}
		if got.Stats.Combinations != combin.Triples(24) {
			t.Errorf("%v combinations = %d", a, got.Stats.Combinations)
		}
	}
}

func TestBestMatchesBruteForce(t *testing.T) {
	mx := randomMatrix(61, 12, 100)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	obj := score.NewK2(mx.Samples())
	best := Candidate{Score: obj.Worst()}
	combin.ForEachTriple(12, func(i, j, k int) {
		tab := contingency.BuildReference(mx, i, j, k)
		sc := obj.Score(&tab)
		c := Triple{i, j, k}.scored(sc)
		if sc != best.Score && obj.Better(sc, best.Score) || sc == best.Score && c.Less(best) {
			best = c
		}
	})
	for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
		res, err := s.Run(Options{Approach: a, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != best {
			t.Errorf("%v best = %+v, want %+v", a, res.Best, best)
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	mx := randomMatrix(62, 20, 200)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Run(Options{Approach: V3Fused, Workers: 1, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		res, err := s.Run(Options{Approach: V3Fused, Workers: workers, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != base.Best {
			t.Errorf("workers=%d best %+v != %+v", workers, res.Best, base.Best)
		}
		for i := range res.TopK {
			if res.TopK[i] != base.TopK[i] {
				t.Errorf("workers=%d TopK[%d] differs", workers, i)
			}
		}
	}
}

func TestPlantedInteractionRecovered(t *testing.T) {
	it := &dataset.Interaction{SNPs: [3]int{5, 11, 17}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 30, Samples: 1200, Seed: 8, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(mx, Options{Approach: V3Fused})
	if err != nil {
		t.Fatal(err)
	}
	want := Triple{I: 5, J: 11, K: 17}
	if res.Best.triple() != want {
		t.Errorf("best = %v, want planted %v", res.Best.triple(), want)
	}
}

func TestObjectiveVariants(t *testing.T) {
	it := &dataset.Interaction{SNPs: [3]int{2, 7, 12}, Penetrance: dataset.ThresholdPenetrance(2, 0.05, 0.95)}
	mx, err := dataset.Generate(dataset.GenConfig{
		SNPs: 16, Samples: 1500, Seed: 21, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Triple{I: 2, J: 7, K: 12}
	for _, name := range []string{"k2", "mi", "gini"} {
		obj, err := score.New(name, mx.Samples())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Search(mx, Options{Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.triple() != want {
			t.Errorf("%s: best %v, want %v", name, res.Best.triple(), want)
		}
	}
}

func TestTopKOrderingAndSize(t *testing.T) {
	mx := randomMatrix(63, 15, 150)
	res, err := Search(mx, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 10 {
		t.Fatalf("TopK size %d, want 10", len(res.TopK))
	}
	obj := score.NewK2(mx.Samples())
	for i := 1; i < len(res.TopK); i++ {
		a, b := res.TopK[i-1], res.TopK[i]
		if a.Score != b.Score && !obj.Better(a.Score, b.Score) {
			t.Errorf("TopK not sorted at %d: %g vs %g", i, a.Score, b.Score)
		}
	}
	// TopK larger than the space returns everything.
	small := randomMatrix(64, 4, 40)
	resAll, err := Search(small, Options{TopK: 100})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(resAll.TopK)) != combin.Triples(4) {
		t.Errorf("TopK = %d, want %d", len(resAll.TopK), combin.Triples(4))
	}
}

func TestBlockParameterRobustness(t *testing.T) {
	mx := randomMatrix(65, 23, 170) // M not a multiple of BS
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(Options{Approach: V2Split})
	if err != nil {
		t.Fatal(err)
	}
	// The block is fixed at one lane group: only the word tile varies.
	for _, bw := range []int{1, 2, 5} {
		for _, a := range []Approach{V3Fused, V4Fused} {
			res, err := s.Run(Options{Approach: a, BlockWords: bw})
			if err != nil {
				t.Fatalf("%v bw=%d: %v", a, bw, err)
			}
			if res.Best != want.Best {
				t.Errorf("%v bw=%d: best %+v, want %+v", a, bw, res.Best, want.Best)
			}
		}
	}
}

func TestLaneVariants(t *testing.T) {
	mx := randomMatrix(66, 18, 260)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(Options{Approach: V3Fused})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(Options{Approach: V4Fused})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != want.Best {
		t.Errorf("V4F best %+v, V3F's %+v", res.Best, want.Best)
	}
}

func TestOptionValidation(t *testing.T) {
	mx := randomMatrix(67, 6, 50)
	bad := []Options{
		{Approach: Approach(9)},
		{Approach: V1Naive},
		{Approach: V3Blocked},
		{Approach: V4Vector},
		{Workers: -1},
		{TopK: -2},
		{Approach: V4Fused, BlockWords: -1},
	}
	for i, o := range bad {
		if _, err := Search(mx, o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
}

func TestNewRejectsBadDatasets(t *testing.T) {
	if _, err := New(randomMatrix(68, 2, 10)); err == nil {
		t.Error("2 SNPs accepted")
	}
	oneClass := dataset.NewMatrix(5, 10) // all controls
	if _, err := New(oneClass); err == nil {
		t.Error("single-class dataset accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	mx := randomMatrix(69, 64, 512)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range []Approach{V2Split, V4Fused} {
		if _, err := s.Run(Options{Approach: a, Context: ctx}); err == nil {
			t.Errorf("%v: cancelled run returned no error", a)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	mx := randomMatrix(70, 10, 128)
	res, err := Search(mx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Combinations != combin.Triples(10) {
		t.Errorf("combinations %d", res.Stats.Combinations)
	}
	if res.Stats.Elements != float64(combin.Triples(10))*128 {
		t.Errorf("elements %g", res.Stats.Elements)
	}
	if res.Stats.Duration <= 0 || res.Stats.ElementsPerSec <= 0 {
		t.Errorf("timing not populated: %+v", res.Stats)
	}
}

// Property: V2, V3F and V4F agree with the reference tables on arbitrary
// random datasets, including awkward shapes (class imbalance, tiny N, N
// not a word multiple).
func TestApproachEquivalenceProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8, nRaw uint16, imbalance bool) bool {
		m := int(mRaw%12) + 5
		n := int(nRaw%300) + 10
		r := rand.New(rand.NewSource(seed))
		mx := dataset.NewMatrix(m, n)
		for i := 0; i < m; i++ {
			row := mx.Row(i)
			for j := range row {
				row[j] = uint8(r.Intn(3))
			}
		}
		caseEvery := 2
		if imbalance {
			caseEvery = 7
		}
		for j := 0; j < n; j++ {
			if j%caseEvery == 0 {
				mx.SetPhen(j, dataset.Case)
			}
		}
		s, err := New(mx)
		if err != nil {
			return false
		}
		want := referenceTopK(mx, score.NewK2(n), 1)[0]
		for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
			if r, err := s.Run(Options{Approach: a, Workers: 2}); err != nil || r.Best != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTripleLessAndString(t *testing.T) {
	a := Triple{1, 2, 3}.scored(0)
	b := Triple{1, 2, 4}.scored(0)
	c := Triple{1, 3, 3}.scored(0)
	d := Triple{2, 2, 3}.scored(0)
	if !a.Less(b) || !a.Less(c) || !a.Less(d) || b.Less(a) || a.Less(a) {
		t.Error("Less ordering wrong")
	}
	if a.SNPs != [contingency.MaxOrder]int{1, 2, 3} || a.triple() != (Triple{1, 2, 3}) {
		t.Errorf("candidate SNPs %v", a.SNPs)
	}
	if s := a.triple().String(); s != "(1,2,3)" {
		t.Errorf("String = %q", s)
	}
}
