package contingency

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// laneTables runs one lanes pass with one body: the stored planes of
// len(xs)/2 SNPs (x0, x1 of each, in order) go through TransposeLanes
// into a tile that starts one word into its array, so no vector load of
// it is 64-byte aligned.
func laneTables(oracle bool, xs [][]uint64, y0, y1, z0, z1 []uint64) (lt LaneTable, blk PairBlock) {
	n := len(y0)
	src := make([]uint64, 0, len(xs)*n)
	for _, p := range xs {
		src = append(src, p...)
	}
	xt := make([]uint64, 1+LaneTileWords(n))[1:]
	for i := range xt {
		xt[i] = 0xDEADBEEFDEADBEEF // a reused tile: short lanes must be cleared
	}
	TransposeLanes(xt, src, n)
	blk.Init(n, oracle)
	blk.Build(y0, y1, z0, z1)
	for cell := range lt {
		for lane := range lt[cell] {
			lt[cell][lane] = -12345 // the pass sets, it does not add
		}
	}
	blk.AccumulateLanes(&lt, xt)
	return lt, blk
}

// TestLanesPrimitiveMatchesReference is the differential test of the
// lanes pass: for every plane length from 0 to 300 words, 1 to 8 valid
// lanes, on slices that start one word into their arrays, over random,
// all-zero, all-one and pad-inflated planes, each body's column of every
// valid lane must equal the sample-by-sample reference and what one
// Accumulate call per SNP gives, cell for cell; and a lane past the
// SNPs given must read as a SNP that is genotype 2 everywhere.
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

// FuzzLanesAccumulate feeds arbitrary plane contents, lengths and lane
// counts to both bodies of the lanes pass: every lane must agree with
// the sample-by-sample reference. Planes are cut from data as in
// FuzzFusedAccumulate: 2 per lane, then y and z.
func FuzzLanesAccumulate(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 20*8*9), uint8(7))
	seed := make([]byte, 20*8*37)
	rand.New(rand.NewSource(76)).Read(seed)
	f.Add(seed, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, lanes uint8) {
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
		for _, body := range bodies {
			if !body.oracle && !hasAVX512 {
				continue
			}
			lt, _ := laneTables(body.oracle, xs, yz[0], yz[1], yz[2], yz[3])
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
// tile; and the transpose that feeds it.
func BenchmarkLanes(b *testing.B) {
	for _, words := range []int{4, 8, 64, 120} {
		r := rand.New(rand.NewSource(5))
		src := make([]uint64, 0, 2*Lanes*words)
		for lane := 0; lane < Lanes; lane++ {
			x0, x1 := randomPlanes(r, words)
			src = append(append(src, x0...), x1...)
		}
		y0, y1 := randomPlanes(r, words)
		z0, z1 := randomPlanes(r, words)
		xt := make([]uint64, LaneTileWords(words))
		TransposeLanes(xt, src, words)
		b.Run(fmt.Sprintf("transpose/%dw", words), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TransposeLanes(xt, src, words)
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
					blk.AccumulateLanes(&lt, xt)
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
