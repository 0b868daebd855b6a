package trigene

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/obs"
	"trigene/internal/permtest"
	"trigene/internal/store"
)

func internalSession(t *testing.T) *Session {
	t.Helper()
	mx, err := Generate(GenConfig{SNPs: 18, Samples: 240, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionBuildsEachEncodingAtMostOnce is the store's core economic
// guarantee: no matter how many searches a session serves, across
// every backend, each representation is constructed at most once.
func TestSessionBuildsEachEncodingAtMostOnce(t *testing.T) {
	s := internalSession(t)
	ctx := context.Background()
	gn1, err := GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	if b := s.store.Builds(); b != (store.Builds{}) {
		t.Fatalf("NewSession built encodings eagerly: %+v", b)
	}
	runs := []struct {
		name string
		opts []Option
	}{
		{"V3F", []Option{WithApproach(V3Fused)}},
		{"V4F", []Option{WithApproach(V4Fused)}},
		{"pairs", []Option{WithOrder(2)}},
		{"4-way", []Option{WithOrder(4)}},
		{"gpusim", []Option{WithBackend(GPUSim(gn1))}},
		{"gpusim V1", []Option{WithBackend(GPUSim(gn1)), WithApproach(V1Naive)}},
		{"baseline", []Option{WithBackend(Baseline())}},
		{"hetero", []Option{WithBackend(Hetero())}},
	}
	// Two passes: the second must add zero builds anywhere.
	for pass := 0; pass < 2; pass++ {
		for _, r := range runs {
			if _, err := s.Search(ctx, r.opts...); err != nil {
				t.Fatalf("pass %d %s: %v", pass, r.name, err)
			}
		}
		b := s.store.Builds()
		// One Binarized and one Naive32 (gpusim V1), one Split (every
		// CPU search), one ClassPlanes (baseline), one tiled Words32 (the
		// gpusim and hetero device halves share GN1's tile width).
		want := store.Builds{Binarized: 1, Split: 1, Naive32: 1, ClassPlanes: 1, Words32: 1}
		if b != want {
			t.Fatalf("pass %d: builds = %+v, want %+v", pass, b, want)
		}
	}
}

// TestCPURefusesGPUApproaches: V1..V4 name the simulated GPU's kernels.
// The cpu backend refuses each of them — pinned locally, sharded,
// screened, and from a SearchSpec — with an error naming the approach and
// the accepted ones, before any encoding; gpusim still runs all four.
func TestCPURefusesGPUApproaches(t *testing.T) {
	ctx := context.Background()
	gn1, err := GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range []Approach{V1Naive, V2Split, V3Blocked, V4Vector} {
		s := internalSession(t)
		for name, opts := range map[string][]Option{
			"local":                  {WithApproach(ap)},
			"cpu named":              {WithBackend(CPU()), WithApproach(ap)},
			"backend after approach": {WithApproach(ap), WithBackend(CPU())},
			"sharded":                {WithApproach(ap), WithShard(0, 2)},
			"screened":               {WithApproach(ap), WithScreen(ScreenSpec{MaxSurvivors: 8})},
		} {
			rep, err := s.Search(ctx, opts...)
			if err == nil || rep != nil {
				t.Fatalf("%v %s: ran, %+v", ap, name, rep)
			}
			if msg := err.Error(); !strings.Contains(msg, ap.String()) || !strings.Contains(msg, "V3F or V4F") {
				t.Errorf("%v %s: error %q does not name the approach and the accepted ones", ap, name, msg)
			}
		}
		if b := s.store.Builds(); b != (store.Builds{}) {
			t.Errorf("%v: refused searches built %+v", ap, b)
		}
		for _, sp := range []SearchSpec{{Approach: ap.String()}, {Backend: "cpu", Approach: ap.String()}, {Approach: strconv.Itoa(int(ap))}} {
			if _, err := sp.Options(); err == nil || !strings.Contains(err.Error(), sp.Approach) {
				t.Errorf("spec %+v: Options err = %v, want a refusal naming %q", sp, err, sp.Approach)
			}
		}

		gpu := []Option{WithBackend(GPUSim(gn1)), WithApproach(ap)}
		rep, err := s.Search(ctx, gpu...)
		if err != nil || rep.Approach != ap.String() {
			t.Fatalf("gpusim %v: %v, %+v", ap, err, rep)
		}
		sp := SearchSpec{Backend: "gpusim:GN1", Approach: ap.String()}
		opts, err := sp.Options()
		if err != nil {
			t.Fatalf("gpusim spec %+v: %v", sp, err)
		}
		if rep, err := s.Search(ctx, opts...); err != nil || rep.Approach != ap.String() {
			t.Errorf("gpusim spec %v: %v, %+v", ap, err, rep)
		}
	}
}

// TestSingleApproachBuildsOneEncoding asserts the lazy split: a
// session serving only gpusim V1 searches never constructs the
// phenotype-split form, and a session serving only V3F or only V4F
// never constructs the naive three-plane form.
func TestSingleApproachBuildsOneEncoding(t *testing.T) {
	ctx := context.Background()
	gn1, err := GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}

	v1 := internalSession(t)
	if _, err := v1.Search(ctx, WithBackend(GPUSim(gn1)), WithApproach(V1Naive)); err != nil {
		t.Fatal(err)
	}
	if b := v1.store.Builds(); b.Binarized != 1 || b.Split != 0 {
		t.Fatalf("gpusim-V1-only session builds = %+v; the split form must never be constructed", b)
	}

	for _, ap := range []Approach{V3Fused, V4Fused} {
		s := internalSession(t)
		if _, err := s.Search(ctx, WithApproach(ap)); err != nil {
			t.Fatal(err)
		}
		if b := s.store.Builds(); b.Split != 1 || b.Binarized != 0 {
			t.Fatalf("%v-only session builds = %+v; the naive form must never be constructed", ap, b)
		}
	}
}

// TestPackSessionAdoptsEncodings: a pack-loaded session adopts the
// pack's packed sections, the 2-bit encoding every plane form is built
// from. The load builds nothing, and each search builds the form it
// reads once: the split form for V3F and V4F, the naive form and its
// 32-bit layout for gpusim's V1.
func TestPackSessionAdoptsEncodings(t *testing.T) {
	s := internalSession(t)
	ctx := context.Background()
	var buf bytes.Buffer
	if err := s.WritePack(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b := loaded.store.Builds(); b != (store.Builds{}) {
		t.Fatalf("pack load built %+v", b)
	}
	gn1, err := GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, opts := range [][]Option{{WithApproach(V3Fused)}, {WithApproach(V4Fused)}, {WithBackend(GPUSim(gn1)), WithApproach(V1Naive)}} {
			if _, err := loaded.Search(ctx, opts...); err != nil {
				t.Fatal(err)
			}
		}
		if b, want := loaded.store.Builds(), (store.Builds{Split: 1, Binarized: 1, Naive32: 1}); b != want {
			t.Fatalf("pass %d: pack-loaded session built %+v, want %+v", pass, b, want)
		}
	}
}

// TestPermutationTestBuildsNoEncoding: a permutation test reads the
// genotype planes of its candidates' SNPs and nothing else of the
// dataset: an encode of those rows, never the dataset-wide Binarized,
// and on a pack-loaded session the matrix is never decoded either.
// Results agree with each other and with the scalar reference either
// way.
func TestPermutationTestBuildsNoEncoding(t *testing.T) {
	s := internalSession(t)
	ctx := context.Background()
	var buf bytes.Buffer
	if err := s.WritePack(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSession(s.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	candidates := [][]int{{0, 5, 9}, {2, 5}, {1, 9, 12, 17}}
	opts := []Option{WithPermutations(50), WithSeed(4)}
	want, err := fresh.PermutationTestAll(ctx, candidates, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.PermutationSlice(ctx, candidates, 10, 20, WithSeed(4)); err != nil {
		t.Fatal(err)
	}
	if b := fresh.store.Builds(); b != (store.Builds{}) {
		t.Errorf("permutation tests on a matrix session built %+v; want no dataset-wide encoding", b)
	}
	// The cold journey — search, then test its winners — is one build.
	if _, err := fresh.Search(ctx, WithTopK(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.PermutationTestAll(ctx, candidates, opts...); err != nil {
		t.Fatal(err)
	}
	if b := fresh.store.Builds(); b != (store.Builds{Split: 1}) {
		t.Errorf("search + permutation test built %+v; want the split form only", b)
	}
	got, err := loaded.PermutationTestAll(ctx, candidates, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.PermutationSlice(ctx, candidates, 10, 20, WithSeed(4)); err != nil {
		t.Fatal(err)
	}
	if b := loaded.store.Builds(); b != (store.Builds{}) {
		t.Errorf("permutation tests on a pack-loaded session built %+v; want neither the matrix nor an encoding", b)
	}
	for i, snps := range candidates {
		ref, err := permtest.K(s.Matrix(), snps, permtest.Config{Permutations: 50, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if *got[i] != *want[i] || *want[i] != *ref {
			t.Errorf("candidate %v: pack session %+v, matrix session %+v, scalar %+v", snps, got[i], want[i], ref)
		}
	}
}

// rawText writes mx the way plink --recode A does: one space between
// fields, one line per sample.
func rawText(mx *Matrix) []byte {
	var b bytes.Buffer
	b.WriteString("FID IID PAT MAT SEX PHENOTYPE")
	for i := 0; i < mx.SNPs(); i++ {
		fmt.Fprintf(&b, " snp%d_A", i)
	}
	b.WriteByte('\n')
	for j := 0; j < mx.Samples(); j++ {
		fmt.Fprintf(&b, "F%d I%d 0 0 0 %d", j, j, mx.Phen(j)+1)
		for i := 0; i < mx.SNPs(); i++ {
			b.WriteByte(' ')
			b.WriteByte('0' + mx.Geno(i, j))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestRAWSessionBuildsNoMatrix: a session read with ReadRAWSession runs
// the cold journey — a screened search with seed pairs, then a permutation
// test of its top-K — on its packed sections alone: one Split, and the
// Matrix is never decoded (the survivors are gathered from the packed rows,
// the candidates' planes encoded from them). Report, p-values and
// DatasetHash equal those of a session over ReadRAW's matrix, of one over
// its .tpack, which also builds no Matrix for the screened search, and of
// one over the matrix the text was written from.
func TestRAWSessionBuildsNoMatrix(t *testing.T) {
	// 101 samples: rows start at every entry of a packed byte.
	mx, err := Generate(GenConfig{SNPs: 40, Samples: 101, Seed: 17, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &Interaction{SNPs: [3]int{4, 19, 33}, Penetrance: ThresholdPenetrance(3, 0.05, 0.95)}})
	if err != nil {
		t.Fatal(err)
	}
	text := rawText(mx)
	ctx := context.Background()
	searchOpts := []Option{WithTopK(4), WithScreen(ScreenSpec{MaxSurvivors: 12, SeedPairs: 3})}
	permOpts := []Option{WithPermutations(200), WithSeed(9)}
	type run struct {
		rep  *Report
		perm []*PermResult
		hash string
	}
	journey := func(t *testing.T, s *Session) run {
		t.Helper()
		rep, err := s.Search(ctx, searchOpts...)
		if err != nil {
			t.Fatal(err)
		}
		var candidates [][]int
		for _, c := range rep.TopK {
			candidates = append(candidates, c.SNPs)
		}
		perm, err := s.PermutationTestAll(ctx, candidates, permOpts...)
		if err != nil {
			t.Fatal(err)
		}
		return run{rep, perm, s.DatasetHash()}
	}

	cold, err := ReadRAWSession(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got := journey(t, cold)
	if b := cold.store.Builds(); b != (store.Builds{Split: 1}) {
		t.Errorf(".raw session built %+v; want the split form only, and no Matrix", b)
	}

	parsed, err := ReadRAW(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fromMatrix, err := NewSession(parsed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fromMatrix.WritePack(&buf); err != nil {
		t.Fatal(err)
	}
	fromPack, err := ReadPack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	packRun := journey(t, fromPack)
	if b := fromPack.store.Builds(); b != (store.Builds{Split: 1}) {
		t.Errorf("pack-loaded session built %+v for a screened search and a permutation test; want the split form only, and no Matrix", b)
	}
	generated, err := NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]run{"matrix session": journey(t, fromMatrix), ".tpack session": packRun, "generated matrix": journey(t, generated)} {
		if got.hash != want.hash {
			t.Errorf("%s: DatasetHash %s, .raw session %s", name, want.hash, got.hash)
		}
		if !reflect.DeepEqual(got.rep.TopK, want.rep.TopK) || !reflect.DeepEqual(got.rep.Best, want.rep.Best) ||
			got.rep.Combinations != want.rep.Combinations || got.rep.Screen.Survivors != want.rep.Screen.Survivors ||
			got.rep.Screen.SeedPairs != want.rep.Screen.SeedPairs || got.rep.Screen.Threshold != want.rep.Screen.Threshold {
			t.Errorf("%s: Report %+v %+v, .raw session %+v %+v", name, want.rep.TopK, want.rep.Screen, got.rep.TopK, got.rep.Screen)
		}
		for i := range want.perm {
			if *got.perm[i] != *want.perm[i] {
				t.Errorf("%s: candidate %v: %+v, .raw session %+v", name, got.rep.TopK[i].SNPs, want.perm[i], got.perm[i])
			}
		}
	}
	if got.rep.Screen.SeedPairs == 0 || got.rep.Best.SNPs[0] != 4 || got.rep.Best.SNPs[1] != 19 || got.rep.Best.SNPs[2] != 33 {
		t.Errorf("screened search found %v with %d seed pairs; want the planted (4,19,33) through a seeded screen", got.rep.Best.SNPs, got.rep.Screen.SeedPairs)
	}
	// A screen that keeps every SNP gathers every row at a new offset
	// inside its byte, and must still give the unscreened top-K.
	all, err := cold.Search(ctx, WithTopK(4), WithScreen(ScreenSpec{MaxSurvivors: mx.SNPs()}))
	if err != nil {
		t.Fatal(err)
	}
	unscreened, err := cold.Search(ctx, WithTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all.TopK, unscreened.TopK) {
		t.Errorf("permissive screen %+v, unscreened %+v", all.TopK, unscreened.TopK)
	}
}

// TestPermRowCounters: a permutation test on a metrics registry reports
// the relabelings it drew (the default 1000 when none is asked for) and
// the table rows it scored next to those a full score would have taken.
// The planted triple's permutations stop early under K2, in scoring: the
// counts of every row are there, and under half the rows are scored. The
// range primitive adds its own rows; MI scores every row.
func TestPermRowCounters(t *testing.T) {
	mx, err := Generate(GenConfig{SNPs: 16, Samples: 600, Seed: 40, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &Interaction{SNPs: [3]int{2, 8, 14}, Penetrance: ThresholdPenetrance(3, 0.05, 0.95)}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reg := obs.NewRegistry()
	value := func(name string) int64 {
		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("%s not exposed", name)
		return 0
	}

	candidates := [][]int{{2, 8, 14}, {2, 8}}
	if _, err := s.PermutationTestAll(ctx, candidates, WithSeed(3), WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if got := value("trigene_perm_permutations_total"); got != 1000 {
		t.Errorf("permutations_total = %d, want the default 1000", got)
	}
	total, counted := value("trigene_perm_rows_total"), value("trigene_perm_rows_counted_total")
	if total != 1000*(27+9) || counted <= 0 || counted >= total/2 {
		t.Errorf("K2 rows: %d scored of %d, want 1000 x 36 in all and under half of them scored", counted, total)
	}

	if _, err := s.PermutationSlice(ctx, candidates, 100, 40, WithSeed(3), WithObjective("mi"), WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if got := value("trigene_perm_rows_total") - total; got != 40*36 {
		t.Errorf("slice added %d rows in all, want 40 x 36", got)
	}
	if got := value("trigene_perm_rows_counted_total") - counted; got != 40*36 {
		t.Errorf("MI slice scored %d rows, want all 40 x 36", got)
	}
}

// refusingExecutor is a RemoteExecutor that fails the test if a search
// reaches it.
type refusingExecutor struct{ t *testing.T }

func (e refusingExecutor) Name() string { return "refusing" }

func (e refusingExecutor) ExecuteSearch(context.Context, *Matrix, SearchSpec) (*Report, error) {
	e.t.Error("a search whose space overflows int64 reached the executor")
	return nil, fmt.Errorf("refused")
}

// TestSearchRefusesSpacesBeyondInt64: at orders 5 to 7, a dataset one SNP
// past the largest M whose C(M,k) fits an int64 is refused with an error —
// locally before any encoding is built, and before a cluster hears of it —
// while the largest M still runs, as a 1-of-N shard at the top of its rank
// space. A screen pinned to a few survivors searches the larger dataset;
// a screen sized by a time budget is refused, with or without a
// MaxSurvivors cap, since it starts with the exhaustive search.
func TestSearchRefusesSpacesBeyondInt64(t *testing.T) {
	ctx := context.Background()
	session := func(m int) *Session {
		mx := NewMatrix(m, 8)
		for i := 0; i < m; i++ {
			for j, row := 0, mx.Row(i); j < len(row); j++ {
				row[j] = uint8((i*7 + j*3 + i*j) % 3)
			}
		}
		for j := 0; j < 8; j += 2 {
			mx.SetPhen(j, 1)
		}
		s, err := NewSession(mx)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for k, limit := range map[int]int{5: 16175, 6: 4337, 7: 1733} {
		over := session(limit + 1)
		// A time budget caps nothing: its screen starts with the
		// exhaustive search, so it is refused like the unscreened one.
		for _, extra := range [][]Option{nil, {WithCluster(refusingExecutor{t})},
			{WithScreen(ScreenSpec{BudgetSeconds: 1e-3})}, {WithScreen(ScreenSpec{MaxSurvivors: 10, BudgetSeconds: 1e-3})}} {
			_, err := over.Search(ctx, append([]Option{WithOrder(k)}, extra...)...)
			if err == nil || !strings.Contains(err.Error(), "more than an int64 counts") {
				t.Errorf("order %d over %d SNPs: error %v, want the space refused", k, limit+1, err)
			}
		}
		if b := over.store.Builds(); b != (store.Builds{}) {
			t.Errorf("order %d over %d SNPs: refused searches built %+v", k, limit+1, b)
		}
		survivors := []int{0, 5, 9, 100, 1000, 1500, 1600, limit - 1, limit}
		rep, err := over.Search(ctx, WithOrder(k), WithWorkers(1), WithScreen(ScreenSpec{Survivors: survivors}))
		if err != nil {
			t.Fatalf("order %d over %d SNPs, %d pinned survivors: %v", k, limit+1, len(survivors), err)
		}
		if want := combin.Binomial(len(survivors), k); rep.Combinations != want {
			t.Errorf("order %d, %d pinned survivors: %d combinations, want %d", k, len(survivors), rep.Combinations, want)
		}
		total := combin.Binomial(limit, k)
		count := int(total / 500)
		rep, err = session(limit).Search(ctx, WithOrder(k), WithWorkers(1), WithShard(count-1, count))
		if err != nil {
			t.Fatalf("order %d over %d SNPs, last of %d shards: %v", k, limit, count, err)
		}
		if rep.Combinations < 500 || rep.Combinations > 1000 || len(rep.Best.SNPs) != k || rep.Best.SNPs[k-1] != limit-1 {
			t.Errorf("order %d over %d SNPs, last of %d shards: %d combinations, best %v", k, limit, count, rep.Combinations, rep.Best.SNPs)
		}
	}
}
