package contingency

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"trigene/internal/bitvec"
	"trigene/internal/dataset"
)

// sampleGeno is sample s's genotype in a SNP's stored planes: 0 or 1
// where that plane has its bit, 2 where neither does.
func sampleGeno(p0, p1 []uint64, s int) int {
	switch {
	case p0[s/64]>>(s%64)&1 != 0:
		return 0
	case p1[s/64]>>(s%64)&1 != 0:
		return 1
	}
	return 2
}

// referenceTriple counts the 27 cells of a triple one sample at a time
// over the first samples bits of the planes.
func referenceTriple(x0, x1, y0, y1, z0, z1 []uint64, samples int) (ft [Cells]int32) {
	for s := 0; s < samples; s++ {
		ft[ComboIndex(sampleGeno(x0, x1, s), sampleGeno(y0, y1, s), sampleGeno(z0, z1, s))]++
	}
	return ft
}

// lanesPass runs the triple lanes pass with one kernel the way the
// engine's fused loop does, over the triples (x+l, y, z), l < nx, of one
// class of n samples: data and marg hold the class as dataset.Split
// stores it and Searcher caches its marginals. Per word tile (cut at the
// given offsets, ascending inside (0, words); none: one whole-plane pass)
// the chunk goes through TransposeLanes into a reused dirty tile that
// starts one word into its array, and XLanes against y and z and
// TripleLanes against (y, z) go into dirty tables, the first tile setting
// and the rest adding. The (y, z) table comes from PairLanes with y in
// the lane it has in its run of eight, and Derive completes the table.
func lanesPass(k LaneKernel, data []uint64, words int, marg [][2]int32, n, x, nx, y, z int, cuts []int) (lt LaneTable) {
	for row := range lt {
		for l := range lt[row] {
			lt[row][l] = -12345 // the first pass sets, it does not add
		}
	}
	xy := XCounts{lt[0], lt[0], lt[0], lt[0]}
	xz := xy
	xt := make([]uint64, 1+LaneTileWords(words))[1:]
	w0 := 0
	for _, w1 := range append(cuts, words) {
		for i := range xt {
			xt[i] = 0xDEADBEEFDEADBEEF // a reused tile: short chunks must be cleared
		}
		TransposeLanes(xt, data[2*x*words:2*(x+nx)*words], words, w0, w1)
		k.XLanes(&xy, xt, data, words, y, w0, w1, w0 > 0)
		k.XLanes(&xz, xt, data, words, z, w0, w1, w0 > 0)
		k.TripleLanes(&lt, xt, data, words, y, z, w0, w1, w0 > 0)
		w0 = w1
	}
	var yz LaneTable
	run := y - y%Lanes
	k.PairLanes(&yz, data, words, run, min(Lanes, len(marg)-run), z, marg, int32(n))
	k.Derive(&lt, &xy, &xz, marg[x:x+nx], &yz, y-run)
	return lt
}

// tileCuts draws a cut of n words into tiles: nothing (one pass), one
// cut, or every boundary of a random tile width, whose last tile is
// ragged unless the width divides n.
func tileCuts(r *rand.Rand, n int) []int {
	if n < 2 {
		return nil
	}
	switch r.Intn(3) {
	case 0:
		return []int{1 + r.Intn(n-1)}
	case 1:
		var cuts []int
		for width, w := 1+r.Intn(n-1), 0; w+width < n; {
			w += width
			cuts = append(cuts, w)
		}
		return cuts
	}
	return nil
}

// column is lane l of a lane table as a table's cells.
func column(lt *LaneTable, l int) (ft [Cells]int32) {
	for row := range lt {
		ft[row] = lt[row][l]
	}
	return ft
}

// TestLanesPrimitiveMatchesReference is the differential test of the
// lanes pass: for every plane length from 0 to 300 words, 1 to 8 x SNPs,
// in classes laid out one word into their arrays, over random, all-zero,
// all-one and pad-carrying planes, each body's column of every x lane must
// equal the sample-by-sample count, cell for cell, from one whole-plane
// pass and from any cut of the word range into tiles; and a lane past the
// x SNPs must read as a SNP that is genotype 2 everywhere. The
// pad-carrying shapes end 1..63 samples short of the last word: no count
// may see the pad bits, because no genotype-2 plane is ever formed.
func TestLanesPrimitiveMatchesReference(t *testing.T) {
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
			k := LaneKernel{Oracle: body.oracle}
			r := rand.New(rand.NewSource(75))
			random := func(n int) ([]uint64, []uint64) { return randomPlanes(r, n) }
			for n := 0; n <= 300; n++ {
				shapes := []struct {
					name    string
					x, y, z func(int) ([]uint64, []uint64)
					pad     int
				}{
					{"random", random, random, random, 0},
					{"x all genotype 2", zeros, random, random, 0},
					{"x all genotype 0", ones, random, random, 0},
					{"pair all genotype 0", random, ones, ones, 0},
					{"all genotype 2", zeros, zeros, zeros, 0},
					{"pad 1", random, random, random, 1},
					{"pad 63, x all genotype 0", ones, random, random, 63},
					{"pad 17, all genotype 2", zeros, zeros, zeros, 17},
				}
				nx := 1 + n%Lanes
				for _, sh := range shapes {
					samples := 64*n - sh.pad
					if samples < 0 {
						continue
					}
					snps := make([][2][]uint64, nx+2)
					for i := range snps {
						f := sh.x
						switch i {
						case nx:
							f = sh.y
						case nx + 1:
							f = sh.z
						}
						p0, p1 := f(n)
						clearTail(samples, p0, p1)
						snps[i] = [2][]uint64{p0, p1}
					}
					data, marg := classPlanes(1, n, snps)
					y, z := snps[nx], snps[nx+1]
					lt := lanesPass(k, data, n, marg, samples, 0, nx, nx, nx+1, nil)
					cuts := tileCuts(r, n)
					if tiled := lanesPass(k, data, n, marg, samples, 0, nx, nx, nx+1, cuts); tiled != lt {
						t.Fatalf("n=%d %s: tiles cut at %v give another table than the whole-plane pass", n, sh.name, cuts)
					}
					empty0, empty1 := zeros(n)
					for l := 0; l < Lanes; l++ {
						x0, x1 := empty0, empty1
						if l < nx {
							x0, x1 = snps[l][0], snps[l][1]
						}
						want := referenceTriple(x0, x1, y[0], y[1], z[0], z[1], samples)
						if got := column(&lt, l); got != want {
							t.Fatalf("n=%d %s: lane %d of %d differs from the reference\ngot  %v\nwant %v",
								n, sh.name, l, nx, got, want)
						}
					}
				}
			}
		})
	}
}

// TestLanesDeriveStaysInsideTheClass: on split encodings whose classes
// end off a word boundary (so every last word carries pad bits) and on a
// pad-free one, for every chunk of up to eight x SNPs and every (y, z)
// the engine could pair it with — x lanes past y and z included, as on
// the diagonal blocks — and for the lanes past the chunk, no cell of any
// lane's table is negative or above its class size, and every lane's
// cells sum to the class size.
func TestLanesDeriveStaysInsideTheClass(t *testing.T) {
	const m = 13
	for _, samples := range []int{173, 65, 128, 40, 1100} {
		mx := randomMatrix(int64(300+samples), m, samples)
		s := dataset.SplitBinarize(mx)
		for class := 0; class < 2; class++ {
			data, words, size := s.ClassPlaneData(class), s.Words[class], int32(s.N[class])
			marg := make([][2]int32, m)
			for snp := range marg {
				for g := range marg[snp] {
					marg[snp][g] = int32(bitvec.PopCount(s.Plane(class, snp, g)))
				}
			}
			for _, body := range bodies {
				if !body.oracle && !hasAVX512 {
					continue
				}
				k := LaneKernel{Oracle: body.oracle}
				for x := 0; x < m-2; x++ {
					nx := min(Lanes, m-2-x)
					for z := x + 2; z < m; z++ {
						for y := x + 1; y < z; y++ {
							lt := lanesPass(k, data, words, marg, int(size), x, nx, y, z, nil)
							for l := 0; l < Lanes; l++ {
								var sum int32
								for cell, c := range column(&lt, l) {
									if c < 0 || c > size {
										t.Fatalf("samples=%d class %d %s: triple (%d+%d, %d, %d) cell %d = %d, class size %d",
											samples, class, body.name, x, l, y, z, cell, c, size)
									}
									sum += c
								}
								if sum != size {
									t.Fatalf("samples=%d class %d %s: triple (%d+%d, %d, %d) sums to %d, class size %d",
										samples, class, body.name, x, l, y, z, sum, size)
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzLanesAccumulate holds the lanes pass to BuildReference lane by lane
// on both bodies. Each input draws a dataset (from seed) of one or two
// samples up to 38401 — classes of 1 to about 300 words, nearly always
// ending off a word boundary — and a chunk of 1 to 8 x SNPs (lanes) at a
// start of 0 to 3; shape picks whether y lies inside the chunk, as on the
// diagonal block b0 = b1, or past it, whether the chunk's first SNP and y
// are monomorphic, and how many word tiles (one to three, cut at random
// words) each class is walked in, the later ones through the add path.
// Every x lane's two class columns must equal BuildReference's table of
// (x+l, y, z), and every lane past the chunk the table of a SNP that is
// genotype 2 everywhere: BuildReferencePair's (y, z) cells in rows 18..26.
func FuzzLanesAccumulate(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(2*120*64+77), uint8(7), uint8(0x15))
	f.Add(int64(3), uint16(38399), uint8(3), uint8(0x3e))
	f.Fuzz(func(t *testing.T, seed int64, samples uint16, lanes, shape uint8) {
		n := 1 + int(samples)%(2*300*64)
		nx := 1 + int(lanes)%Lanes
		x := int(shape>>4) % 4
		m := x + nx + 3
		mx := randomMatrix(seed, m, n)
		r := rand.New(rand.NewSource(seed))
		y := x + nx + r.Intn(2)
		if shape&1 != 0 && nx > 1 {
			y = x + 1 + r.Intn(nx-1)
		}
		z := y + 1 + r.Intn(m-y-1)
		if shape&8 != 0 {
			for s := 0; s < n; s++ {
				mx.Row(x)[s], mx.Row(y)[s] = 2, 0
			}
		}
		split := dataset.SplitBinarize(mx)
		tiles := 1 + int(shape>>1)%3
		var got [2]LaneTable
		for _, body := range bodies {
			if !body.oracle && !hasAVX512 {
				continue
			}
			for class := range got {
				words := split.Words[class]
				marg := make([][2]int32, m)
				for snp := range marg {
					for g := range marg[snp] {
						marg[snp][g] = int32(bitvec.PopCount(split.Plane(class, snp, g)))
					}
				}
				var cuts []int
				for _, w := range r.Perm(max(words-1, 0))[:min(tiles-1, max(words-1, 0))] {
					cuts = append(cuts, w+1)
				}
				slices.Sort(cuts)
				got[class] = lanesPass(LaneKernel{Oracle: body.oracle}, split.ClassPlaneData(class), words, marg,
					split.N[class], x, nx, y, z, cuts)
			}
			pair := BuildReferencePair(mx, y, z)
			for l := 0; l < Lanes; l++ {
				var want Table
				if l < nx {
					want = BuildReference(mx, x+l, y, z)
				} else {
					for class := range want.Counts {
						copy(want.Counts[class][2*PairCells:], pair.Counts[class][:PairCells])
					}
				}
				for class := range got {
					if c := column(&got[class], l); c != want.Counts[class] {
						t.Fatalf("n=%d %s body, class %d, %d tiles: lane %d of %d, triple (%d+%d, %d, %d) differs from the reference\ngot  %v\nwant %v",
							n, body.name, class, tiles, l, nx, x, l, y, z, c, want.Counts[class])
					}
				}
			}
		}
	})
}

// BenchmarkLanes times the lanes pass on both bodies at the plane lengths
// of a 500-sample class, one vector, an 8192-sample class, a default tile,
// a 16384-sample class of one tile and a bit, and two tiles and a bit:
// TripleLanes for one (y, z), XLanes for one SNP, and as pair/ what one
// (y, z) of a block triple costs at the engine's fused block of Lanes SNPs
// — 64 TripleLanes, 16 XLanes and 64 Derive calls, reported per pair —
// with planes longer than a default tile walked in tiles, the later ones
// adding, the way the engine walks them; the transpose that feeds it,
// of a full chunk and of a partial one, tile by tile into one reused
// tile-sized buffer as the engine does; and one Derive.
func BenchmarkLanes(b *testing.B) {
	const tile, bs = 120, Lanes
	var derived bool
	for _, words := range []int{4, 8, 64, 120, 137, 256} {
		r := rand.New(rand.NewSource(5))
		snps := make([][2][]uint64, Lanes+2*bs)
		for i := range snps {
			p0, p1 := randomPlanes(r, words)
			snps[i] = [2][]uint64{p0, p1}
		}
		data, marg := classPlanes(0, words, snps)
		xt := make([]uint64, LaneTileWords(words))
		for i := 0; i < words; i += tile {
			TransposeLanes(xt[LaneTileWords(i):], data[:2*Lanes*words], words, i, min(i+tile, words))
		}
		for _, nx := range []int{Lanes, 5} {
			b.Run(fmt.Sprintf("transpose/%dw/%dsnps", words, nx), func(b *testing.B) {
				xtile := make([]uint64, LaneTileWords(min(tile, words)))
				for i := 0; i < b.N; i++ {
					for w0 := 0; w0 < words; w0 += tile {
						TransposeLanes(xtile, data[:2*nx*words], words, w0, min(w0+tile, words))
					}
				}
			})
		}
		for _, body := range bodies {
			k := LaneKernel{Oracle: body.oracle}
			name := fmt.Sprintf("%dw/%s", words, body.name)
			var lt, yz LaneTable
			var xc [2 * bs]XCounts
			b.Run("triple/"+name, func(b *testing.B) {
				skipWithoutAssembly(b, body.oracle)
				for i := 0; i < b.N; i++ {
					for w0 := 0; w0 < words; w0 += tile {
						k.TripleLanes(&lt, xt[LaneTileWords(w0):], data, words, Lanes, Lanes+bs, w0, min(w0+tile, words), w0 > 0)
					}
				}
			})
			b.Run("x/"+name, func(b *testing.B) {
				skipWithoutAssembly(b, body.oracle)
				for i := 0; i < b.N; i++ {
					for w0 := 0; w0 < words; w0 += tile {
						k.XLanes(&xc[0], xt[LaneTileWords(w0):], data, words, Lanes, w0, min(w0+tile, words), w0 > 0)
					}
				}
			})
			b.Run("pair/"+name, func(b *testing.B) {
				skipWithoutAssembly(b, body.oracle)
				for i := 0; i < b.N; i++ {
					for w0 := 0; w0 < words; w0 += tile {
						w1 := min(w0+tile, words)
						for s := range xc {
							k.XLanes(&xc[s], xt[LaneTileWords(w0):], data, words, Lanes+s, w0, w1, w0 > 0)
						}
						for p := 0; p < bs*bs; p++ {
							k.TripleLanes(&lt, xt[LaneTileWords(w0):], data, words, Lanes+p/bs, Lanes+bs+p%bs, w0, w1, w0 > 0)
						}
					}
					for p := 0; p < bs*bs; p++ {
						k.Derive(&lt, &xc[p/bs], &xc[bs+p%bs], marg[:Lanes], &yz, p/bs)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(bs*bs), "ns/pair")
			})
			if !derived {
				b.Run("derive/"+body.name, func(b *testing.B) {
					skipWithoutAssembly(b, body.oracle)
					for i := 0; i < b.N; i++ {
						k.Derive(&lt, &xc[0], &xc[bs], marg[:Lanes], &yz, 1)
					}
				})
			}
		}
		derived = true
	}
}
