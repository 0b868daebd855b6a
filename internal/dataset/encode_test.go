package dataset

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"trigene/internal/bitvec"
)

// encodePerSample is the three encoders one sample and one bit at a time:
// the three-plane form over all samples, and per class the two-plane and
// the three-plane form. A byte that is no genotype sets no bit.
func encodePerSample(mx *Matrix) (bin []uint64, split, class [2][]uint64) {
	m, n := mx.SNPs(), mx.Samples()
	controls, cases := mx.ClassCounts()
	w := bitvec.WordsFor(n)
	cw := [2]int{bitvec.WordsFor(controls), bitvec.WordsFor(cases)}
	bin = make([]uint64, m*3*w)
	for c := range cw {
		split[c] = make([]uint64, m*2*cw[c])
		class[c] = make([]uint64, m*3*cw[c])
	}
	for i := 0; i < m; i++ {
		var pos [2]int
		for j, g := range mx.Row(i) {
			c := Control
			if mx.Phen(j) == Case {
				c = Case
			}
			p := pos[c]
			pos[c]++
			if g > 2 {
				continue
			}
			bin[(i*3+int(g))*w+j/64] |= 1 << (j % 64)
			class[c][(i*3+int(g))*cw[c]+p/64] |= 1 << (p % 64)
			if g < 2 {
				split[c][(i*2+int(g))*cw[c]+p/64] |= 1 << (p % 64)
			}
		}
	}
	return bin, split, class
}

// classPlaneData lays a ClassPlanes out as encodePerSample does.
func classPlaneData(cp *ClassPlanes, class int) []uint64 {
	var out []uint64
	for i := 0; i < cp.M; i++ {
		for g := 0; g < 3; g++ {
			out = append(out, cp.Plane(class, i, g)...)
		}
	}
	return out
}

// checkEncoders compares Binarize, BinarizeSNPs, SplitBinarize and
// BuildClassPlanes of mx with the per-sample form, bit for bit, sizes and
// padding included.
func checkEncoders(t *testing.T, mx *Matrix) {
	t.Helper()
	wantBin, wantSplit, wantClass := encodePerSample(mx)
	controls, cases := mx.ClassCounts()

	b := Binarize(mx)
	if !slices.Equal(b.planes, wantBin) {
		t.Errorf("Binarize differs from the per-sample form")
	}
	for j := 0; j < mx.Samples(); j++ {
		if b.Phen.Get(j) != (mx.Phen(j) == Case) {
			t.Fatalf("Binarize: phenotype bit %d", j)
		}
	}
	// Every other SNP, named twice and backwards, with two the matrix
	// does not have.
	some := []int{-1, mx.SNPs()}
	for i := mx.SNPs() - 1; i >= 0; i -= 2 {
		some = append(some, i, i)
	}
	sub, sel := BinarizeSNPs(mx, some), b.Select(some)
	for i := 0; i < mx.SNPs(); i++ {
		for g := 0; g < 3; g++ {
			var want []uint64
			if (mx.SNPs()-1-i)%2 == 0 {
				want = b.Plane(i, g)
			}
			if !slices.Equal(sub.Plane(i, g), want) || !slices.Equal(sel.Plane(i, g), want) {
				t.Errorf("BinarizeSNPs / Select: plane (%d,%d) is not Binarize's", i, g)
			}
		}
	}
	if !slices.Equal(sub.Phen.Words(), b.Phen.Words()) || sub.M != b.M || sub.N != b.N || sub.Words != b.Words {
		t.Errorf("BinarizeSNPs: phenotype or dimensions differ from Binarize's")
	}

	s := SplitBinarize(mx)
	cp := BuildClassPlanes(mx)
	for c, n := range [2]int{controls, cases} {
		w := bitvec.WordsFor(n)
		if s.N[c] != n || s.Words[c] != w || s.Pad[c] != w*64-n || cp.ClassWords(c) != w {
			t.Errorf("class %d: N %d Words %d Pad %d, class-plane words %d; want %d samples in %d words",
				c, s.N[c], s.Words[c], s.Pad[c], cp.ClassWords(c), n, w)
		}
		if !slices.Equal(s.ClassPlaneData(c), wantSplit[c]) {
			t.Errorf("SplitBinarize class %d differs from the per-sample form", c)
		}
		if !slices.Equal(classPlaneData(cp, c), wantClass[c]) {
			t.Errorf("BuildClassPlanes class %d differs from the per-sample form", c)
		}
	}

	// The packed source, as the .raw reader and a pack hand it to the
	// store: sections packed one row at a time, which Pack's SNP-parallel
	// runs must reproduce, encoded with no Matrix behind them.
	p := referencePack(mx)
	if !packedEqual(Pack(mx), p) {
		t.Errorf("Pack differs from packing one row at a time")
	}
	if !slices.Equal(p.Binarize().planes, wantBin) {
		t.Errorf("Binarize from the packed source differs from the per-sample form")
	}
	psub := p.SNPPlanes(some)
	for i := 0; i < mx.SNPs(); i++ {
		for g := 0; g < 3; g++ {
			if !slices.Equal(psub.Plane(i, g), sub.Plane(i, g)) {
				t.Errorf("SNPPlanes from the packed source: plane (%d,%d) differs", i, g)
			}
		}
	}
	ps, pcp := p.Split(), p.ClassPlanes()
	for c := range wantSplit {
		if ps.N[c] != s.N[c] || ps.Pad[c] != s.Pad[c] || !slices.Equal(ps.ClassPlaneData(c), wantSplit[c]) {
			t.Errorf("Split from the packed source, class %d, differs from the per-sample form", c)
		}
		if !slices.Equal(classPlaneData(pcp, c), wantClass[c]) {
			t.Errorf("ClassPlanes from the packed source, class %d, differs from the per-sample form", c)
		}
	}
}

// TestEncodersDifferential compares the encoders, from a Matrix and from
// packed sections, with their per-sample form over shapes where a word
// boundary, a class boundary or the split over goroutines can go wrong:
// sample counts around a word and past one goroutine's first run of words,
// a class of one sample, classes that change on and off a word boundary,
// every control before every case, SNPs of one genotype only, fewer SNPs
// than goroutines and more than one run of them — each at GOMAXPROCS 1 and
// 4. With 19 SNPs and an odd sample count, rows start at every entry of a
// packed byte and the section's last byte holds fewer than four entries.
func TestEncodersDifferential(t *testing.T) {
	phenotypes := map[string]func(j, n int, r *rand.Rand) uint8{
		"random":            func(j, n int, r *rand.Rand) uint8 { return uint8(r.Intn(2)) },
		"alternating":       func(j, n int, r *rand.Rand) uint8 { return uint8(j % 2) },
		"one case":          func(j, n int, r *rand.Rand) uint8 { return b2u(j == n/3) },
		"one control":       func(j, n int, r *rand.Rand) uint8 { return b2u(j != n-1) },
		"controls first":    func(j, n int, r *rand.Rand) uint8 { return b2u(j >= n/2) },
		"cases first":       func(j, n int, r *rand.Rand) uint8 { return b2u(j < n/2) },
		"change at a word":  func(j, n int, r *rand.Rand) uint8 { return b2u(j >= 64) },
		"change off a word": func(j, n int, r *rand.Rand) uint8 { return b2u(j >= 37 && j < 37+128) },
		"runs of 64 and 65": func(j, n int, r *rand.Rand) uint8 { return uint8(j / 64 % 2 & (j / 65 % 2)) },
	}
	for _, procs := range []int{1, 4} {
		for _, n := range []int{1, 63, 64, 65, 127, 500, 4097} {
			for _, m := range []int{1, 3, 19} {
				for name, phen := range phenotypes {
					t.Run(fmt.Sprintf("P%d/%dx%d/%s", procs, m, n, name), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						r := rand.New(rand.NewSource(int64(1000*n + m)))
						mx := randomMatrix(int64(n+m), m, n)
						for j := 0; j < n; j++ {
							mx.SetPhen(j, phen(j, n, r))
						}
						// The last three SNPs carry one genotype each.
						for g := 0; g < min(3, m-1); g++ {
							for j := 0; j < n; j++ {
								mx.SetGeno(m-1-g, j, uint8(g))
							}
						}
						checkEncoders(t, mx)
					})
				}
			}
		}
	}
}

func b2u(b bool) uint8 {
	if b {
		return Case
	}
	return Control
}

// TestEncodersIgnoreNonGenotypes: a byte above 2 — reachable through Row —
// sets no bit in any plane of any encoder, wherever it sits in its word.
func TestEncodersIgnoreNonGenotypes(t *testing.T) {
	mx := randomMatrix(77, 4, 200)
	for k, v := range []uint8{3, 4, 0x80, 0xFF, 0x12} {
		mx.Row(k % 4)[k*41%200] = v
		mx.Row(3)[199-k] = v
	}
	checkEncoders(t, mx)
}

// TestEachRunRaisesPanicOnCaller: a run's panic, whichever goroutine
// claimed the run, is raised again on eachRun's caller once every run
// has returned.
func TestEachRunRaisesPanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for bad := 0; bad < 64; bad += 9 {
		func() {
			var runs atomic.Int32
			defer func() {
				if v := recover(); v == nil || runs.Load() != 64 {
					t.Fatalf("run %d: recovered %v after %d of 64 runs", bad, v, runs.Load())
				}
			}()
			eachRun(64*8, 8, func(lo, hi int) {
				runs.Add(1)
				if lo == bad*8 {
					panic("boom")
				}
			})
			t.Fatalf("run %d: eachRun returned past a panic", bad)
		}()
	}
}

// TestValidateNamesFirstBadGenotype: the eight-at-a-time scan reports what
// the byte-at-a-time one did — the first byte above 2, wherever it is in
// its word, in a full word or in the last few bytes.
func TestValidateNamesFirstBadGenotype(t *testing.T) {
	mx := NewMatrix(3, 7) // 21 bytes: two words and five bytes
	mx.SetPhen(0, Case)
	if err := mx.Validate(); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 21; idx++ {
		for _, v := range []uint8{3, 4, 0x40, 0x80, 0xFF} {
			for _, later := range []int{-1, 20} {
				for j := range mx.geno {
					mx.geno[j] = uint8(j % 3)
				}
				mx.geno[idx] = v
				if later > idx {
					mx.geno[later] = 9
				}
				want := fmt.Sprintf("dataset: SNP %d sample %d: invalid genotype %d", idx/7, idx%7, v)
				if err := mx.Validate(); err == nil || err.Error() != want {
					t.Fatalf("byte %#x at %d: %v, want %s", v, idx, err, want)
				}
			}
		}
	}
}
