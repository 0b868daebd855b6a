package contingency

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"trigene/internal/bitvec"
	"trigene/internal/combin"
	"trigene/internal/dataset"
)

// referencePairCells counts the nine pair cells one sample (bit) at a
// time over the first samples bits of the planes: genotype 0 or 1 where
// that plane has the bit, 2 where neither does.
func referencePairCells(x0, x1, y0, y1 []uint64, samples int) (ft [Cells]int32) {
	geno := func(p0, p1 []uint64, s int) int {
		switch {
		case p0[s/64]>>(s%64)&1 != 0:
			return 0
		case p1[s/64]>>(s%64)&1 != 0:
			return 1
		}
		return 2
	}
	for s := 0; s < samples; s++ {
		ft[PairComboIndex(geno(x0, x1, s), geno(y0, y1, s))]++
	}
	return ft
}

// pairCells runs BuildPair with one body over planes holding samples
// samples, taking the marginals from the planes themselves. ft arrives
// dirty: the nine pair cells must be overwritten, the rest untouched.
func pairCells(vector bool, x0, x1, y0, y1 []uint64, samples int) (ft [Cells]int32) {
	count := func(p []uint64) int32 { return int32(bitvec.PopCount(p)) }
	for i := range ft {
		ft[i] = -7
	}
	buildPair(&ft, x0, x1, y0, y1,
		[2]int32{count(x0), count(x1)}, [2]int32{count(y0), count(y1)}, int32(samples), vector)
	for i := PairCells; i < Cells; i++ {
		if ft[i] != -7 {
			panic("BuildPair wrote outside the nine pair cells")
		}
		ft[i] = 0
	}
	return ft
}

// clearTail zeroes the bits at and above sample samples, as the loaders
// do for pad bits.
func clearTail(samples int, planes ...[]uint64) {
	for _, p := range planes {
		for s := samples; s < 64*len(p); s++ {
			p[s/64] &^= 1 << (s % 64)
		}
	}
}

// TestPairPrimitiveMatchesReference is the differential test of the
// pair primitive: for every plane length from 0 to 300 words (every
// residue of the 8-word vector, many vectors deep), on slices that
// start one word into their arrays (so no load is 64-byte aligned),
// over random, all-zero, all-one and pad-carrying planes, each body
// must equal the sample-by-sample count cell for cell. The pad-carrying
// shapes end 1..63 samples short of the last word: with no NOR in the
// kernel the pad must never reach cell 8, uncorrected.
func TestPairPrimitiveMatchesReference(t *testing.T) {
	zeros := func(n int) (p0, p1 []uint64) { return make([]uint64, n), make([]uint64, n) }
	ones := func(n int) (p0, p1 []uint64) {
		p0, p1 = zeros(n)
		for w := range p0 {
			p0[w] = ^uint64(0)
		}
		return p0, p1
	}
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			skipWithoutAssembly(t, body.oracle)
			r := rand.New(rand.NewSource(80))
			random := func(n int) ([]uint64, []uint64) { return randomPlanes(r, n) }
			for n := 0; n <= 300; n++ {
				gen := func(f func(int) ([]uint64, []uint64)) (p0, p1 []uint64) {
					p0, p1 = f(n + 1)
					return p0[1:], p1[1:]
				}
				shapes := []struct {
					name string
					x, y func(int) ([]uint64, []uint64)
					pad  int
				}{
					{"random", random, random, 0},
					{"x all genotype 2", zeros, random, 0},
					{"x all genotype 0", ones, random, 0},
					{"both all genotype 2", zeros, zeros, 0},
					{"both all genotype 0", ones, ones, 0},
					{"pad 1", random, random, 1},
					{"pad 63, y all genotype 2", random, zeros, 63},
					{"pad 17, all genotype 0", ones, ones, 17},
				}
				for _, sh := range shapes {
					samples := 64*n - sh.pad
					if samples < 0 {
						continue
					}
					x0, x1 := gen(sh.x)
					y0, y1 := gen(sh.y)
					clearTail(samples, x0, x1, y0, y1)
					want := referencePairCells(x0, x1, y0, y1, samples)
					if got := pairCells(!body.oracle, x0, x1, y0, y1, samples); got != want {
						t.Fatalf("n=%d %s: pair cells differ from the reference\ngot  %v\nwant %v", n, sh.name, got[:PairCells], want[:PairCells])
					}
				}
			}
		})
	}
}

// TestBuildPairMatchesReferenceTable runs the exported entry point over
// split encodings with ragged classes (173, 65 and 40 samples), a
// pad-free one (128), and classes of several vectors with ragged tails:
// every pair's table must be BuildReferencePair's, with no correction
// applied. It also pins what the stubs' //go:noescape buys: the counted
// cells live on the stack and go to the assembly by pointer.
func TestBuildPairMatchesReferenceTable(t *testing.T) {
	for _, samples := range []int{173, 65, 128, 40, 1100, 4133} {
		mx := randomMatrix(int64(200+samples), 7, samples)
		s := dataset.SplitBinarize(mx)
		count := func(class, snp int) (n [2]int32) {
			for g := range n {
				n[g] = int32(bitvec.PopCount(s.Plane(class, snp, g)))
			}
			return n
		}
		build := func(tab *Table, i, j int) {
			for class := 0; class < 2; class++ {
				BuildPair(&tab.Counts[class],
					s.Plane(class, i, 0), s.Plane(class, i, 1),
					s.Plane(class, j, 0), s.Plane(class, j, 1),
					count(class, i), count(class, j), int32(s.N[class]))
			}
		}
		combin.ForEachPair(7, func(i, j int) {
			var got Table
			build(&got, i, j)
			if want := BuildReferencePair(mx, i, j); !got.Equal(&want) {
				t.Fatalf("samples=%d pair (%d,%d): table differs from the reference\ngot:\n%swant:\n%s",
					samples, i, j, got.String(), want.String())
			}
		})
		xn, yn := count(0, 2), count(0, 5)
		var tab Table
		if allocs := testing.AllocsPerRun(20, func() {
			BuildPair(&tab.Counts[0], s.Plane(0, 2, 0), s.Plane(0, 2, 1), s.Plane(0, 5, 0), s.Plane(0, 5, 1), xn, yn, int32(s.N[0]))
		}); allocs != 0 {
			t.Errorf("samples=%d: BuildPair allocates %.0f times per call", samples, allocs)
		}
	}
}

// FuzzPairAccumulate feeds arbitrary plane contents, lengths and sample
// counts to both bodies: they must agree with each other and with the
// sample-by-sample reference. The four planes are cut from data; x1 and
// y1 are made disjoint from their partners and the pad bits cleared,
// the two properties the loaders guarantee.
func FuzzPairAccumulate(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(make([]byte, 4*8*9), uint8(1), uint8(63))
	seed := make([]byte, 4*8*37)
	rand.New(rand.NewSource(81)).Read(seed)
	f.Add(seed, uint8(3), uint8(29))
	f.Fuzz(func(t *testing.T, data []byte, skip, pad uint8) {
		n := len(data) / (4 * 8)
		if n > 512 {
			n = 512
		}
		var planes [4][]uint64
		for p := range planes {
			// skip%4 words of slack put each plane at a different alignment.
			buf := make([]uint64, int(skip%4)+n)
			planes[p] = buf[skip%4:]
			for w := 0; w < n; w++ {
				planes[p][w] = binary.LittleEndian.Uint64(data[(p*n+w)*8:])
			}
		}
		for w := 0; w < n; w++ {
			planes[1][w] &^= planes[0][w]
			planes[3][w] &^= planes[2][w]
		}
		samples := 64 * n
		if n > 0 {
			samples -= int(pad % 64)
		}
		x0, x1, y0, y1 := planes[0], planes[1], planes[2], planes[3]
		clearTail(samples, x0, x1, y0, y1)
		want := referencePairCells(x0, x1, y0, y1, samples)
		if got := pairCells(false, x0, x1, y0, y1, samples); got != want {
			t.Fatalf("n=%d: portable body differs from the reference\ngot  %v\nwant %v", n, got, want)
		}
		if got := pairCells(hasAVX512, x0, x1, y0, y1, samples); got != want {
			t.Fatalf("n=%d: %s body differs from the reference\ngot  %v\nwant %v", n, Kernel(), got, want)
		}
	})
}
