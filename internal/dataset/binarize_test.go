package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trigene/internal/bitvec"
)

func randomMatrix(seed int64, m, n int) *Matrix {
	r := rand.New(rand.NewSource(seed))
	mx := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := mx.Row(i)
		for j := range row {
			row[j] = uint8(r.Intn(3))
		}
	}
	for j := 0; j < n; j++ {
		mx.SetPhen(j, uint8(r.Intn(2)))
	}
	return mx
}

func TestBinarizePlanesPartition(t *testing.T) {
	mx := randomMatrix(10, 5, 130)
	b := Binarize(mx)
	if b.M != 5 || b.N != 130 {
		t.Fatalf("dims = %dx%d", b.M, b.N)
	}
	for i := 0; i < b.M; i++ {
		for j := 0; j < b.N; j++ {
			g := mx.Geno(i, j)
			for plane := 0; plane < 3; plane++ {
				bit := b.Plane(i, plane)[j/64]>>(uint(j)%64)&1 != 0
				if bit != (int(g) == plane) {
					t.Fatalf("SNP %d sample %d plane %d: bit %v, genotype %d", i, j, plane, bit, g)
				}
			}
		}
		// Planes partition the samples.
		total := 0
		for plane := 0; plane < 3; plane++ {
			total += bitvec.PopCount(b.Plane(i, plane))
		}
		if total != b.N {
			t.Fatalf("SNP %d planes sum to %d, want %d", i, total, b.N)
		}
	}
	// Phenotype vector matches.
	for j := 0; j < b.N; j++ {
		if b.Phen.Get(j) != (mx.Phen(j) == Case) {
			t.Fatalf("phenotype bit %d mismatch", j)
		}
	}
}

func TestBinarizePlaneRangePanics(t *testing.T) {
	b := Binarize(randomMatrix(1, 3, 10))
	for _, f := range []func(){
		func() { b.Plane(3, 0) },
		func() { b.Plane(0, 3) },
		func() { b.Plane(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSplitBinarizeCountsAndPlanes(t *testing.T) {
	mx := randomMatrix(11, 6, 200)
	s := SplitBinarize(mx)
	controls, cases := mx.ClassCounts()
	if s.N[Control] != controls || s.N[Case] != cases {
		t.Fatalf("split sizes (%d,%d), want (%d,%d)", s.N[Control], s.N[Case], controls, cases)
	}
	for c := 0; c < 2; c++ {
		if s.Words[c] != bitvec.WordsFor(s.N[c]) {
			t.Errorf("class %d words = %d", c, s.Words[c])
		}
		if s.Pad[c] != s.Words[c]*64-s.N[c] {
			t.Errorf("class %d pad = %d", c, s.Pad[c])
		}
	}
	// Reconstruct genotype counts per class from planes; compare with the
	// matrix. Plane 0 and 1 are stored, genotype 2 count is the remainder.
	for i := 0; i < s.M; i++ {
		var want [2][3]int
		for j := 0; j < mx.Samples(); j++ {
			want[mx.Phen(j)][mx.Geno(i, j)]++
		}
		for c := 0; c < 2; c++ {
			n0 := bitvec.PopCount(s.Plane(c, i, 0))
			n1 := bitvec.PopCount(s.Plane(c, i, 1))
			if n0 != want[c][0] || n1 != want[c][1] {
				t.Fatalf("SNP %d class %d: planes (%d,%d), want (%d,%d)", i, c, n0, n1, want[c][0], want[c][1])
			}
			if s.N[c]-n0-n1 != want[c][2] {
				t.Fatalf("SNP %d class %d: inferred g2 %d, want %d", i, c, s.N[c]-n0-n1, want[c][2])
			}
		}
	}
}

// Property: for any matrix, the NOR-derived genotype-2 plane (with the
// pad correction) counts exactly the genotype-2 samples.
func TestSplitNorInferenceProperty(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		m := int(mRaw%5) + 3
		n := int(nRaw%150) + 2
		mx := randomMatrix(seed, m, n)
		s := SplitBinarize(mx)
		for c := 0; c < 2; c++ {
			for i := 0; i < m; i++ {
				g2 := make([]uint64, s.Words[c])
				bitvec.Nor(g2, s.Plane(c, i, 0), s.Plane(c, i, 1))
				got := bitvec.PopCount(g2) - s.Pad[c] // pad bits come out as ones
				want := 0
				for j := 0; j < n; j++ {
					if int(mx.Phen(j)) == c && mx.Geno(i, j) == 2 {
						want++
					}
				}
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSplitPlaneRange(t *testing.T) {
	mx := randomMatrix(12, 3, 300)
	s := SplitBinarize(mx)
	full := s.Plane(Control, 1, 0)
	part := s.PlaneRange(Control, 1, 0, 1, 3)
	if len(part) != 2 || &part[0] != &full[1] {
		t.Error("PlaneRange should alias the plane storage")
	}
}

func TestSplitPanics(t *testing.T) {
	s := SplitBinarize(randomMatrix(1, 3, 10))
	for _, f := range []func(){
		func() { s.Plane(2, 0, 0) },
		func() { s.Plane(0, 3, 0) },
		func() { s.Plane(0, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBytesPerCombination(t *testing.T) {
	mx := randomMatrix(13, 3, 128)
	s := SplitBinarize(mx)
	want := (s.Words[0] + s.Words[1]) * 2 * 3 * 8
	if got := s.BytesPerCombination(); got != want {
		t.Errorf("BytesPerCombination = %d, want %d", got, want)
	}
}

// binarizePerSample and splitBinarizePerSample are the encoders in
// their one-bit-per-sample form: the oracles of the word-at-a-time ones.
func binarizePerSample(mx *Matrix) []uint64 {
	w := bitvec.WordsFor(mx.Samples())
	planes := make([]uint64, mx.SNPs()*3*w)
	for i := 0; i < mx.SNPs(); i++ {
		for j, g := range mx.Row(i) {
			planes[(i*3+int(g))*w+j/64] |= 1 << (uint(j) % 64)
		}
	}
	return planes
}

func splitBinarizePerSample(mx *Matrix) (planes [2][]uint64) {
	controls, cases := mx.ClassCounts()
	words := [2]int{bitvec.WordsFor(controls), bitvec.WordsFor(cases)}
	for c := range planes {
		planes[c] = make([]uint64, mx.SNPs()*2*words[c])
	}
	for i := 0; i < mx.SNPs(); i++ {
		var pos [2]int
		for j, g := range mx.Row(i) {
			c := mx.Phen(j)
			p := pos[c]
			pos[c]++
			if g < 2 {
				planes[c][(i*2+int(g))*words[c]+p/64] |= 1 << (uint(p) % 64)
			}
		}
	}
	return planes
}

// TestEncodersMatchPerSampleForm is the differential test of the
// word-at-a-time encoders: byte-identical planes (and so DatasetHash
// and .tpack bytes) on shapes where a word boundary can go wrong —
// sample counts around multiples of 8 and 64, classes of one sample, of
// exactly one word and of one sample more, a SNP that is all genotype 2
// (no stored bit at all) and one that is all genotype 0.
func TestEncodersMatchPerSampleForm(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200, 1000} {
		for _, cases := range []int{1, n / 2, n - 1, 64, 65} {
			if cases < 1 || cases >= n {
				continue
			}
			mx := randomMatrix(int64(1000*n+cases), 6, n)
			for j := range mx.Phenotypes() {
				mx.Phenotypes()[j] = Control
			}
			for _, j := range r.Perm(n)[:cases] {
				mx.SetPhen(j, Case)
			}
			for j := 0; j < n; j++ {
				mx.SetGeno(2, j, 2)
				mx.SetGeno(4, j, 0)
			}
			b := Binarize(mx)
			want := binarizePerSample(mx)
			for k, w := range b.planes {
				if w != want[k] {
					t.Fatalf("n=%d cases=%d: binarized word %d = %#x, per-sample form %#x", n, cases, k, w, want[k])
				}
			}
			s := SplitBinarize(mx)
			wantSplit := splitBinarizePerSample(mx)
			for c := range wantSplit {
				got := s.ClassPlaneData(c)
				if len(got) != len(wantSplit[c]) {
					t.Fatalf("n=%d cases=%d: class %d holds %d words, want %d", n, cases, c, len(got), len(wantSplit[c]))
				}
				for k, w := range got {
					if w != wantSplit[c][k] {
						t.Fatalf("n=%d cases=%d: split class %d word %d = %#x, per-sample form %#x", n, cases, c, k, w, wantSplit[c][k])
					}
				}
			}
		}
	}
}

// TestGenotypeWordIsExact: every code at every one of a word's 64
// entries sets its bit in the plane it equals and in no other — code 3 in
// none — so planes made from any section cannot overlap; and a row that
// starts at any entry of a byte and ends inside a word sets no bit past
// its end, whatever the next row holds.
func TestGenotypeWordIsExact(t *testing.T) {
	for code := uint64(0); code < 4; code++ {
		for k := 0; k < 64; k++ {
			x := [2]uint64{^uint64(0), ^uint64(0)} // every other entry 3
			x[k/32] ^= (3 ^ code) << (2 * (k % 32))
			g0, g1, g2 := genotypeWords(x[0], x[1])
			for g, got := range []uint64{g0, g1, g2} {
				want := uint64(0)
				if code == uint64(g) {
					want = 1 << k
				}
				if got != want {
					t.Fatalf("code %d at %d, plane %d: word %#x, want %#x", code, k, g, got, want)
				}
			}
		}
	}
	for n := 1; n <= 130; n++ {
		// Four rows, so that one starts at each entry of a byte when n is
		// odd; entry j of row i is (i+j)%3.
		p := &Packed{M: 4, N: n, Geno: make([]byte, (4*n+3)/4), Phen: make([]byte, (n+7)/8)}
		for i := 0; i < p.M; i++ {
			for j := 0; j < n; j++ {
				idx := i*n + j
				p.Geno[idx/4] |= byte((i+j)%3) << (idx % 4 * 2)
			}
		}
		w := bitvec.WordsFor(n)
		planes := make([]uint64, 3*w)
		for i := 0; i < p.M; i++ {
			p.binarizeRow(planes, i)
			for g := 0; g < 3; g++ {
				want := make([]uint64, w)
				for j := 0; j < n; j++ {
					if (i+j)%3 == g {
						want[j/64] |= 1 << (j % 64)
					}
				}
				for k := range want {
					if got := planes[g*w+k]; got != want[k] {
						t.Fatalf("n=%d row %d plane %d word %d: %#x, want %#x", n, i, g, k, got, want[k])
					}
				}
			}
		}
	}
}
