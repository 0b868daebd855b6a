package store

import (
	"sync"
	"testing"

	"trigene/internal/dataset"
)

func genMatrix(t testing.TB, m, n int, seed int64) *dataset.Matrix {
	t.Helper()
	mx, err := dataset.Generate(dataset.GenConfig{SNPs: m, Samples: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

func TestNewValidates(t *testing.T) {
	if _, err := New(dataset.NewMatrix(5, 10)); err == nil {
		t.Fatal("single-class matrix accepted")
	}
}

func TestNewBuildsNothing(t *testing.T) {
	st, err := New(genMatrix(t, 20, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if b := st.Builds(); b != (Builds{}) {
		t.Fatalf("fresh store already built something: %+v", b)
	}
}

func TestEachEncodingBuiltOnce(t *testing.T) {
	st, err := New(genMatrix(t, 20, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st.Binarized()
		st.Split()
		st.Naive32()
		st.ClassPlanes()
		st.Words32(dataset.LayoutRowMajor, 0)
		st.Words32(dataset.LayoutTransposed, 0)
		st.Words32(dataset.LayoutTiled, 32)
		st.Words32(dataset.LayoutTiled, 64)
	}
	want := Builds{Binarized: 1, Split: 1, Naive32: 1, ClassPlanes: 1, Words32: 4}
	if b := st.Builds(); b != want {
		t.Fatalf("builds = %+v, want %+v", b, want)
	}
	// Identity: repeated requests return the same memoized object.
	if st.Split() != st.Split() || st.Binarized() != st.Binarized() {
		t.Fatal("memoized encodings are not identical objects")
	}
	if st.Words32(dataset.LayoutTiled, 32) == st.Words32(dataset.LayoutTiled, 64) {
		t.Fatal("distinct tile widths share one Words32")
	}
}

// TestSNPPlanesBuildsNothing: planes of named SNPs are encoded from their
// rows without a dataset-wide build, and equal the Binarized's words once
// the store holds one.
func TestSNPPlanesBuildsNothing(t *testing.T) {
	st, err := New(genMatrix(t, 20, 150, 9))
	if err != nil {
		t.Fatal(err)
	}
	snps := []int{7, 3, 19, 3, 25}
	fromRows := st.SNPPlanes(snps)
	if b := st.Builds(); b != (Builds{}) || st.EncodeSeconds() != 0 {
		t.Fatalf("SNPPlanes built %+v in %v s, want nothing", b, st.EncodeSeconds())
	}
	bin := st.Binarized()
	for snp := 0; snp < 20; snp++ {
		for g := 0; g < 3; g++ {
			a := fromRows.Plane(snp, g)
			if held := snp == 3 || snp == 7 || snp == 19; !held {
				if a != nil {
					t.Fatalf("SNP %d was not asked for and is held", snp)
				}
				continue
			}
			for k, w := range bin.Plane(snp, g) {
				if a[k] != w {
					t.Fatalf("plane (%d,%d) word %d: %#x from the rows, %#x in the Binarized", snp, g, k, a[k], w)
				}
			}
		}
	}
}

func TestWords32IgnoresBSForUntiled(t *testing.T) {
	st, err := New(genMatrix(t, 10, 64, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Words32(dataset.LayoutRowMajor, 16) != st.Words32(dataset.LayoutRowMajor, 32) {
		t.Fatal("BS should not key untiled layouts")
	}
	if b := st.Builds().Words32; b != 1 {
		t.Fatalf("Words32 builds = %d, want 1", b)
	}
}

func TestEncodingsMatchDirectConstruction(t *testing.T) {
	mx := genMatrix(t, 17, 130, 4)
	st, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	bin, ref := st.Binarized(), dataset.Binarize(mx)
	for i := 0; i < mx.SNPs(); i++ {
		for g := 0; g < 3; g++ {
			a, b := bin.Plane(i, g), ref.Plane(i, g)
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("binarized plane (%d,%d) word %d differs", i, g, k)
				}
			}
		}
	}
	sp, spRef := st.Split(), dataset.SplitBinarize(mx)
	for c := 0; c < 2; c++ {
		for i := 0; i < mx.SNPs(); i++ {
			for g := 0; g < 2; g++ {
				a, b := sp.Plane(c, i, g), spRef.Plane(c, i, g)
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("split plane (%d,%d,%d) word %d differs", c, i, g, k)
					}
				}
			}
		}
	}
}

func TestHashStableAcrossRepresentations(t *testing.T) {
	mx := genMatrix(t, 12, 90, 5)
	st1, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	// A second store over an identical matrix hashes identically.
	mx2 := genMatrix(t, 12, 90, 5)
	st2, err := New(mx2)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hash() != st2.Hash() {
		t.Fatalf("identical matrices hash differently: %s vs %s", st1.Hash(), st2.Hash())
	}
	// A different matrix hashes differently.
	st3, err := New(genMatrix(t, 12, 90, 6))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hash() == st3.Hash() {
		t.Fatal("different matrices share a hash")
	}
	if len(st1.Hash()) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", st1.Hash())
	}
}

func TestConcurrentAccessBuildsOnce(t *testing.T) {
	st, err := New(genMatrix(t, 24, 128, 7))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.Binarized()
			st.Split()
			st.Words32(dataset.LayoutTiled, 32)
			st.Hash()
		}()
	}
	wg.Wait()
	want := Builds{Binarized: 1, Split: 1, Words32: 1}
	if b := st.Builds(); b != want {
		t.Fatalf("concurrent builds = %+v, want %+v", b, want)
	}
}

// TestHashGolden pins the content hash of two fixed datasets — one whose
// rows end inside a packed byte (117 samples), one whose rows fill whole
// bytes (16) — to the values the per-genotype packing loop gave before
// packing went four to the byte. Caches and pack files key on this hash:
// it must not move.
func TestHashGolden(t *testing.T) {
	for _, tc := range []struct {
		m, n int
		seed int64
		want string
	}{
		{23, 117, 42, "d63a22ce95b741b48318e8e0f350dac3eb0f36127143905fd96cdc889ec525ec"},
		{7, 16, 3, "a7142ef21b9eae9866dc614744d3be4d8f78a618ca1ba6e670410d03c05f2eec"},
	} {
		st, err := New(genMatrix(t, tc.m, tc.n, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Hash(); got != tc.want {
			t.Errorf("%dx%d seed %d: hash %s, want %s", tc.m, tc.n, tc.seed, got, tc.want)
		}
	}
}
