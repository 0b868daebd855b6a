package contingency

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"trigene/internal/dataset"
)

// randomPlanes fabricates n-word x/y/z plane pairs the way SplitBinarize
// lays them out: plane 0 and plane 1 never share a bit, so the NOR-derived
// genotype-2 plane is exact.
func randomPlanes(r *rand.Rand, n int) (p0, p1 []uint64) {
	p0 = make([]uint64, n)
	p1 = make([]uint64, n)
	for w := 0; w < n; w++ {
		a := r.Uint64()
		b := r.Uint64()
		p0[w] = a &^ b
		p1[w] = b &^ a
	}
	return p0, p1
}

// referenceCells counts the 27 cells the way BuildReference does, one
// sample (bit) at a time: a sample's genotype is 0 or 1 where that plane
// has its bit, 2 where neither does — pad bits included, as in every
// Accumulate kernel.
func referenceCells(x0, x1, y0, y1, z0, z1 []uint64) (ft [Cells]int32) {
	geno := func(p0, p1 []uint64, w int, bit uint) int {
		switch {
		case p0[w]>>bit&1 != 0:
			return 0
		case p1[w]>>bit&1 != 0:
			return 1
		}
		return 2
	}
	for w := range x0 {
		for bit := uint(0); bit < 64; bit++ {
			ft[ComboIndex(geno(x0, x1, w, bit), geno(y0, y1, w, bit), geno(z0, z1, w, bit))]++
		}
	}
	return ft
}

// bodies are the two implementations of the primitive; the assembly
// half is skipped where the host or the build lacks it.
var bodies = []struct {
	name   string
	oracle bool
}{{"portable", true}, {"avx512", false}}

func skipWithoutAssembly(t testing.TB, oracle bool) {
	t.Helper()
	if !oracle && !hasAVX512 {
		t.Skipf("kernel is %q: no AVX-512 VPOPCNTDQ body on this host or in this build", Kernel())
	}
}

// fusedCells builds the pair planes of y and z and charges x against
// them with one body: the Go ones directly, or the entry points, which run
// the assembly where the host and the build have it.
func fusedCells(oracle bool, x0, x1, y0, y1, z0, z1 []uint64) (ft [Cells]int32) {
	n := len(x0)
	planes := make([]uint64, PairPlanes*n)
	if oracle {
		buildPairPlanesGo(planes, y0, y1, z0, z1)
		sums := sumPairPlanesGo(planes, n)
		accumulateFusedGo(&ft, x0, x1, planes, &sums)
		return ft
	}
	BuildPairPlanes(planes, y0, y1, z0, z1)
	AccumulateFusedLanes8(&ft, x0, x1, planes)
	return ft
}

// TestFusedPrimitiveMatchesReference is the differential test of the
// primitive: for every tile length from 0 to 300 words (every residue
// of the 8-word vector, many vectors deep), on slices that start one
// word into their arrays (so no load is 64-byte aligned), over random,
// all-zero, all-one and pad-inflated planes, each body must equal the
// sample-by-sample reference and AccumulateSplit cell for cell, and must
// lay the planes out and sum them as documented.
func TestFusedPrimitiveMatchesReference(t *testing.T) {
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
			r := rand.New(rand.NewSource(70))
			for n := 0; n <= 300; n++ {
				// One word of slack in front of every plane.
				gen := func(f func(int) ([]uint64, []uint64)) (p0, p1 []uint64) {
					p0, p1 = f(n + 1)
					return p0[1:], p1[1:]
				}
				random := func(n int) ([]uint64, []uint64) { return randomPlanes(r, n) }
				shapes := []struct {
					name       string
					x, y, z    func(int) ([]uint64, []uint64)
					wantCell26 int32 // -1: not pinned
				}{
					{"random", random, random, random, -1},
					{"x all genotype 2", zeros, random, random, -1},
					{"x all genotype 0", ones, random, random, -1},
					{"pair all genotype 0", random, ones, ones, -1},
					// Every bit of every word is "padding": cell 26 takes them all.
					{"pad-inflated", zeros, zeros, zeros, int32(64 * n)},
				}
				for _, sh := range shapes {
					x0, x1 := gen(sh.x)
					y0, y1 := gen(sh.y)
					z0, z1 := gen(sh.z)
					want := referenceCells(x0, x1, y0, y1, z0, z1)
					var split [Cells]int32
					AccumulateSplit(&split, x0, x1, y0, y1, z0, z1)
					if split != want {
						t.Fatalf("n=%d %s: AccumulateSplit differs from the reference", n, sh.name)
					}
					if sh.wantCell26 >= 0 && want[Cells-1] != sh.wantCell26 {
						t.Fatalf("n=%d %s: reference cell 26 = %d, want %d", n, sh.name, want[Cells-1], sh.wantCell26)
					}
					if got := fusedCells(body.oracle, x0, x1, y0, y1, z0, z1); got != want {
						t.Fatalf("n=%d %s: fused cells differ from the reference\ngot  %v\nwant %v", n, sh.name, got, want)
					}
				}
				// Layout and sums of the planes themselves.
				y0, y1 := gen(random)
				z0, z1 := gen(random)
				planes := make([]uint64, PairPlanes*n)
				var sums [PairPlanes]int32
				if body.oracle {
					buildPairPlanesGo(planes, y0, y1, z0, z1)
					sums = sumPairPlanesGo(planes, n)
				} else {
					BuildPairPlanes(planes, y0, y1, z0, z1)
					sums = sumPairPlanes(planes, n)
				}
				var wantSums [PairPlanes]int32
				for w := 0; w < n; w++ {
					ys := [3]uint64{y0[w], y1[w], ^(y0[w] | y1[w])}
					zs := [3]uint64{z0[w], z1[w], ^(z0[w] | z1[w])}
					for p := 0; p < PairPlanes; p++ {
						v := ys[p/3] & zs[p%3]
						if got := planes[p*n+w]; got != v {
							t.Fatalf("n=%d: plane %d word %d = %#x, want %#x", n, p, w, got, v)
						}
						wantSums[p] += int32(bits.OnesCount64(v))
					}
				}
				if sums != wantSums {
					t.Fatalf("n=%d: plane sums %v, want %v", n, sums, wantSums)
				}
			}
		})
	}
}

// TestFusedAccumulateIsAdditive asserts the accumulation adds (+=)
// rather than overwrites, since the benchmark's kernel layer calls it
// once per word tile on the same table, and that one plane buffer serves
// a longer, a shorter and then a longer range again.
func TestFusedAccumulateIsAdditive(t *testing.T) {
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			skipWithoutAssembly(t, body.oracle)
			r := rand.New(rand.NewSource(71))
			buf := make([]uint64, PairPlanes*40)
			for _, n := range []int{40, 6, 19} {
				x0, x1 := randomPlanes(r, n)
				y0, y1 := randomPlanes(r, n)
				z0, z1 := randomPlanes(r, n)
				planes := buf[:PairPlanes*n]
				accumulate := func(ft *[Cells]int32) { AccumulateFusedLanes8(ft, x0, x1, planes) }
				if body.oracle {
					buildPairPlanesGo(planes, y0, y1, z0, z1)
					sums := sumPairPlanesGo(planes, n)
					accumulate = func(ft *[Cells]int32) { accumulateFusedGo(ft, x0, x1, planes, &sums) }
				} else {
					BuildPairPlanes(planes, y0, y1, z0, z1)
				}
				var once, twice [Cells]int32
				accumulate(&once)
				accumulate(&twice)
				accumulate(&twice)
				if once != referenceCells(x0, x1, y0, y1, z0, z1) {
					t.Fatalf("n=%d: reused planes differ from the reference", n)
				}
				for i := range once {
					if twice[i] != 2*once[i] {
						t.Fatalf("n=%d cell %d: two passes gave %d, want %d", n, i, twice[i], 2*once[i])
					}
				}
			}
		})
	}
}

// TestBarePlaneEntryPoints keeps the entry points honest: planes from
// BuildPairPlanes, charged through AccumulateFusedX2 and
// AccumulateFusedLanes8, give AccumulateSplit's cells.
func TestBarePlaneEntryPoints(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for _, n := range []int{0, 1, 4, 7, 8, 9, 31, 104, 105} {
		x0, x1 := randomPlanes(r, n)
		u0, u1 := randomPlanes(r, n)
		y0, y1 := randomPlanes(r, n)
		z0, z1 := randomPlanes(r, n)
		var wantA, wantB [Cells]int32
		AccumulateSplit(&wantA, x0, x1, y0, y1, z0, z1)
		AccumulateSplit(&wantB, u0, u1, y0, y1, z0, z1)

		pair := make([]uint64, PairPlanes*n)
		BuildPairPlanes(pair, y0, y1, z0, z1)
		var got, gotA, gotB [Cells]int32
		AccumulateFusedLanes8(&got, x0, x1, pair)
		AccumulateFusedX2(&gotA, &gotB, x0, x1, u0, u1, pair)
		if got != wantA || gotA != wantA || gotB != wantB {
			t.Errorf("n=%d: bare-plane entry points differ from AccumulateSplit", n)
		}
		// Their plane sums live on the stack and go to the assembly by
		// pointer: without //go:noescape on the stubs each call would
		// move them to the heap.
		if allocs := testing.AllocsPerRun(20, func() {
			BuildPairPlanes(pair, y0, y1, z0, z1)
			AccumulateFusedLanes8(&got, x0, x1, pair)
			AccumulateFusedX2(&gotA, &gotB, x0, x1, u0, u1, pair)
		}); allocs != 0 {
			t.Errorf("n=%d: bare-plane entry points allocate %.0f times per pass", n, allocs)
		}
	}
}

// TestFusedMatchesReferenceWithPadBits checks the fused pipeline end to
// end on split encodings whose final words carry pad bits: the NOR-
// derived planes inflate cell 26 and the standard correction must land
// on exactly BuildReference's counts. 173, 65 and 40 samples give short
// ragged classes, 128 is pad-free, 1100 and 4133 give classes of one
// vector and more with ragged tails.
func TestFusedMatchesReferenceWithPadBits(t *testing.T) {
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			skipWithoutAssembly(t, body.oracle)
			for _, samples := range []int{173, 65, 128, 40, 1100, 4133} {
				mx := randomMatrix(int64(100+samples), 8, samples)
				s := dataset.SplitBinarize(mx)
				controls, cases := mx.ClassCounts()
				for _, tr := range [][3]int{{0, 1, 2}, {1, 3, 7}, {2, 5, 6}} {
					want := BuildReference(mx, tr[0], tr[1], tr[2])
					if err := want.Validate(controls, cases); err != nil {
						t.Fatalf("reference table invalid: %v", err)
					}
					var got Table
					for class := 0; class < 2; class++ {
						got.Counts[class] = fusedCells(body.oracle,
							s.Plane(class, tr[0], 0), s.Plane(class, tr[0], 1),
							s.Plane(class, tr[1], 0), s.Plane(class, tr[1], 1),
							s.Plane(class, tr[2], 0), s.Plane(class, tr[2], 1))
						got.Counts[class][Cells-1] -= int32(s.Pad[class])
					}
					if !got.Equal(&want) {
						t.Errorf("samples=%d triple %v: fused table differs from reference\ngot:\n%swant:\n%s",
							samples, tr, got.String(), want.String())
					}
				}
			}
		})
	}
}

// FuzzFusedAccumulate feeds arbitrary plane contents and lengths to both
// bodies: they must agree with each other and with the sample-by-sample
// reference. The six planes are cut from data; x1, y1 and z1 are made
// disjoint from their partners, the one property the loaders guarantee.
func FuzzFusedAccumulate(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 6*8*9), uint8(1))
	seed := make([]byte, 6*8*37)
	rand.New(rand.NewSource(74)).Read(seed)
	f.Add(seed, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, skip uint8) {
		n := len(data) / (6 * 8)
		if n > 512 {
			n = 512
		}
		var planes [6][]uint64
		for p := range planes {
			// skip%4 words of slack put each plane at a different alignment.
			buf := make([]uint64, int(skip%4)+n)
			planes[p] = buf[skip%4:]
			for w := 0; w < n; w++ {
				planes[p][w] = binary.LittleEndian.Uint64(data[(p*n+w)*8:])
			}
		}
		for p := 1; p < 6; p += 2 {
			for w := 0; w < n; w++ {
				planes[p][w] &^= planes[p-1][w]
			}
		}
		x0, x1, y0, y1, z0, z1 := planes[0], planes[1], planes[2], planes[3], planes[4], planes[5]
		want := referenceCells(x0, x1, y0, y1, z0, z1)
		if got := fusedCells(true, x0, x1, y0, y1, z0, z1); got != want {
			t.Fatalf("n=%d: portable body differs from the reference\ngot  %v\nwant %v", n, got, want)
		}
		if got := fusedCells(false, x0, x1, y0, y1, z0, z1); got != want {
			t.Fatalf("n=%d: %s body differs from the reference\ngot  %v\nwant %v", n, Kernel(), got, want)
		}
	})
}
