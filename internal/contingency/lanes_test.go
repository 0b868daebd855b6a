package contingency

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// laneTables counts the stored planes of len(xs)/2 SNPs (x0, x1 of each,
// in order) against (y, z) with one body, the plane cut into word tiles
// at the given offsets (ascending, inside (0, n); none: one whole-plane
// pass): per tile the x planes go through TransposeLanes into a tile that
// starts one word into its array, so no vector load of it is 64-byte
// aligned, the tile's block is built, and one lanes pass goes into lt —
// the first setting a table that starts dirty, the rest adding to it. The
// block returned is the last tile's.
func laneTables(oracle bool, xs [][]uint64, y0, y1, z0, z1 []uint64, cuts ...int) (lt LaneTable, blk PairBlock) {
	n := len(y0)
	src := make([]uint64, 0, len(xs)*n)
	for _, p := range xs {
		src = append(src, p...)
	}
	for cell := range lt {
		for lane := range lt[cell] {
			lt[cell][lane] = -12345 // the first pass sets, it does not add
		}
	}
	xt := make([]uint64, 1+LaneTileWords(n))[1:]
	blk.Init(n, oracle)
	w0 := 0
	for _, w1 := range append(cuts, n) {
		for i := range xt {
			xt[i] = 0xDEADBEEFDEADBEEF // a reused tile: short lanes must be cleared
		}
		TransposeLanes(xt, src, n, w0, w1)
		blk.Build(y0[w0:w1], y1[w0:w1], z0[w0:w1], z1[w0:w1])
		blk.AccumulateLanes(&lt, xt, w0 > 0)
		w0 = w1
	}
	return lt, blk
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

// TestLanesPrimitiveMatchesReference is the differential test of the
// lanes pass: for every plane length from 0 to 300 words, 1 to 8 valid
// lanes, on slices that start one word into their arrays, over random,
// all-zero, all-one and pad-inflated planes, each body's column of every
// valid lane must equal the sample-by-sample reference and what one
// Accumulate call per SNP gives, cell for cell, from one whole-plane
// pass and from any cut of the word range into tiles, the first set into
// a dirty table and the rest added to it; and a lane past the SNPs given
// must read as a SNP that is genotype 2 everywhere.
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
			r := rand.New(rand.NewSource(75))
			random := func(n int) ([]uint64, []uint64) { return randomPlanes(r, n) }
			for n := 0; n <= 300; n++ {
				gen := func(f func(int) ([]uint64, []uint64)) (p0, p1 []uint64) {
					p0, p1 = f(n + 1)
					return p0[1:], p1[1:]
				}
				shapes := []struct {
					name    string
					x, y, z func(int) ([]uint64, []uint64)
				}{
					{"random", random, random, random},
					{"x all genotype 2", zeros, random, random},
					{"x all genotype 0", ones, random, random},
					{"pair all genotype 0", random, ones, ones},
					// Every bit of every word is "padding": row 26 takes them all.
					{"pad-inflated", zeros, zeros, zeros},
				}
				valid := 1 + n%Lanes
				for _, sh := range shapes {
					xs := make([][]uint64, 0, 2*valid)
					for lane := 0; lane < valid; lane++ {
						x0, x1 := gen(sh.x)
						xs = append(xs, x0, x1)
					}
					y0, y1 := gen(sh.y)
					z0, z1 := gen(sh.z)
					lt, blk := laneTables(body.oracle, xs, y0, y1, z0, z1)
					cuts := tileCuts(r, n)
					if tiled, _ := laneTables(body.oracle, xs, y0, y1, z0, z1, cuts...); tiled != lt {
						t.Fatalf("n=%d %s: tiles cut at %v sum to another table than the whole-plane pass", n, sh.name, cuts)
					}
					empty0, empty1 := zeros(n)
					for lane := 0; lane < Lanes; lane++ {
						x0, x1 := empty0, empty1
						if lane < valid {
							x0, x1 = xs[2*lane], xs[2*lane+1]
						}
						want := referenceCells(x0, x1, y0, y1, z0, z1)
						var acc [Cells]int32
						blk.Accumulate(&acc, x0, x1)
						if acc != want {
							t.Fatalf("n=%d %s lane %d: Accumulate differs from the reference", n, sh.name, lane)
						}
						for cell := range want {
							if lt[cell][lane] != want[cell] {
								t.Fatalf("n=%d %s: lane %d of %d, row %d = %d, reference %d",
									n, sh.name, lane, valid, cell, lt[cell][lane], want[cell])
							}
						}
					}
				}
			}
		})
	}
}

// FuzzLanesAccumulate feeds arbitrary plane contents, lengths, lane
// counts and tile widths to both bodies of the lanes pass: every lane
// must agree with the sample-by-sample reference, from one whole-plane
// pass and from tiles of the given width (the last one ragged) added
// into one table. Planes are cut from data as in FuzzFusedAccumulate: 2
// per lane, then y and z.
func FuzzLanesAccumulate(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(make([]byte, 20*8*9), uint8(7), uint8(4))
	seed := make([]byte, 20*8*37)
	rand.New(rand.NewSource(76)).Read(seed)
	f.Add(seed, uint8(2), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, lanes, width uint8) {
		valid := 1 + int(lanes)%Lanes
		nPlanes := 2*valid + 4
		n := min(len(data)/(nPlanes*8), 512)
		planes := make([][]uint64, nPlanes)
		for p := range planes {
			planes[p] = make([]uint64, n)
			for w := 0; w < n; w++ {
				planes[p][w] = binary.LittleEndian.Uint64(data[(p*n+w)*8:])
			}
		}
		for p := 1; p < nPlanes; p += 2 {
			for w := 0; w < n; w++ {
				planes[p][w] &^= planes[p-1][w]
			}
		}
		xs, yz := planes[:2*valid], planes[2*valid:]
		var cuts []int
		for w := int(width); width > 0 && w < n; w += int(width) {
			cuts = append(cuts, w)
		}
		for _, body := range bodies {
			if !body.oracle && !hasAVX512 {
				continue
			}
			lt, _ := laneTables(body.oracle, xs, yz[0], yz[1], yz[2], yz[3])
			if tiled, _ := laneTables(body.oracle, xs, yz[0], yz[1], yz[2], yz[3], cuts...); tiled != lt {
				t.Fatalf("n=%d %s body: tiles of %d words sum to another table than the whole-plane pass", n, body.name, width)
			}
			for lane := 0; lane < valid; lane++ {
				want := referenceCells(xs[2*lane], xs[2*lane+1], yz[0], yz[1], yz[2], yz[3])
				for cell := range want {
					if lt[cell][lane] != want[cell] {
						t.Fatalf("n=%d %s body: lane %d of %d, row %d = %d, reference %d",
							n, body.name, lane, valid, cell, lt[cell][lane], want[cell])
					}
				}
			}
		}
	})
}

// BenchmarkLanes times one lanes pass (eight x SNPs) next to the eight
// Accumulate calls it replaces, on both bodies, at the plane lengths of
// a 500-sample class, one vector, an 8192-sample class and a default
// tile; the transpose that feeds it; and, as lanes-tiled, planes of two
// and of three default tiles (the last one ragged) accumulated into one
// table, a Build and a pass per tile, the way the engine walks them.
func BenchmarkLanes(b *testing.B) {
	for _, words := range []int{4, 8, 64, 120, 137, 256} {
		r := rand.New(rand.NewSource(5))
		src := make([]uint64, 0, 2*Lanes*words)
		for lane := 0; lane < Lanes; lane++ {
			x0, x1 := randomPlanes(r, words)
			src = append(append(src, x0...), x1...)
		}
		y0, y1 := randomPlanes(r, words)
		z0, z1 := randomPlanes(r, words)
		xt := make([]uint64, LaneTileWords(words))
		TransposeLanes(xt, src, words, 0, words)
		const tile = 120
		if words > tile {
			for _, body := range bodies {
				var blk PairBlock
				blk.Init(tile, body.oracle)
				b.Run(fmt.Sprintf("lanes-tiled/%dw/%s", words, body.name), func(b *testing.B) {
					skipWithoutAssembly(b, body.oracle)
					var lt LaneTable
					for i := 0; i < b.N; i++ {
						for w0 := 0; w0 < words; w0 += tile {
							w1 := min(w0+tile, words)
							blk.Build(y0[w0:w1], y1[w0:w1], z0[w0:w1], z1[w0:w1])
							blk.AccumulateLanes(&lt, xt[LaneTileWords(w0):], w0 > 0)
						}
					}
				})
			}
			continue
		}
		b.Run(fmt.Sprintf("transpose/%dw", words), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TransposeLanes(xt, src, words, 0, words)
			}
		})
		for _, body := range bodies {
			var blk PairBlock
			blk.Init(words, body.oracle)
			blk.Build(y0, y1, z0, z1)
			name := fmt.Sprintf("%dw/%s", words, body.name)
			b.Run("lanes/"+name, func(b *testing.B) {
				skipWithoutAssembly(b, body.oracle)
				var lt LaneTable
				for i := 0; i < b.N; i++ {
					blk.AccumulateLanes(&lt, xt, false)
				}
			})
			b.Run("accumulate-x8/"+name, func(b *testing.B) {
				skipWithoutAssembly(b, body.oracle)
				var ft [Cells]int32
				for i := 0; i < b.N; i++ {
					for lane := 0; lane < Lanes; lane++ {
						blk.Accumulate(&ft, src[2*lane*words:(2*lane+1)*words], src[(2*lane+1)*words:(2*lane+2)*words])
					}
				}
			})
		}
	}
}
