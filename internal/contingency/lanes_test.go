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

// dirtyTables returns n lane tables, and dirtyCounts n pair counts, full
// of a value no count takes: a block entry's first tile must set its rows,
// not add to them.
func dirtyTables(n int) []LaneTable {
	t := make([]LaneTable, n)
	for i := range t {
		for row := range t[i] {
			for l := range t[i][row] {
				t[i][row][l] = -12345
			}
		}
	}
	return t
}

func dirtyCounts(n int) []XCounts {
	c := make([]XCounts, n)
	for i := range c {
		for row := range c[i] {
			for l := range c[i][row] {
				c[i][row][l] = -12345
			}
		}
	}
	return c
}

// runBlock walks one class through the block entry with one kernel the
// way the engine's lanes pass does: per word tile (cut at the given
// offsets, ascending inside (0, words); none: one whole-plane pass) the x
// chunk of nx SNPs from x goes through TransposeLanes into a reused dirty
// tile that starts one word into its array, and Block counts it against
// the list into bank and xc — the first tile setting, the rest adding,
// the last deriving from xmarg and yz.
func runBlock(k LaneKernel, l *LaneList, bank []LaneTable, xc []XCounts, data []uint64, words int, xmarg [][2]int32, yz []LaneTable, x, nx int, cuts []int) {
	xt := make([]uint64, 1+LaneTileWords(words))[1:]
	w0 := 0
	for _, w1 := range append(cuts[:len(cuts):len(cuts)], words) {
		for i := range xt {
			xt[i] = 0xDEADBEEFDEADBEEF // a reused tile: short chunks must be cleared
		}
		TransposeLanes(xt, data[2*x*words:2*(x+nx)*words], words, w0, w1)
		k.Block(bank, xc, l, xt, data, words, w0, w1, xmarg, yz)
		w0 = w1
	}
}

// lanesPass runs the triple lanes pass over the triples (x+l, y, z),
// l < nx, of one class of n samples, a list of one pair: data and marg
// hold the class as dataset.Split stores it and Searcher caches its
// marginals. The (y, z) table comes from PairLanes with y in the lane it
// has in its run of eight.
func lanesPass(k LaneKernel, data []uint64, words int, marg [][2]int32, n, x, nx, y, z int, cuts []int) LaneTable {
	var l LaneList
	l.AddSNP(y)
	l.AddSNP(z)
	run := y - y%Lanes
	l.AddPair(0, 1, 0, y-run)
	yz := make([]LaneTable, 1)
	k.PairLanes(&yz[0], data, words, run, min(Lanes, len(marg)-run), z, marg, int32(n))
	bank := dirtyTables(1)
	runBlock(k, &l, bank, dirtyCounts(2), data, words, marg[x:x+nx], yz, x, nx, cuts)
	return bank[0]
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

// blockTriple is a block triple of the engine's lanes pass: nx x SNPs
// from x, and blocks b1 and b2 of lim1 and lim2 SNPs from base1 and base2
// (the same block when base1 = base2).
type blockTriple struct{ x, nx, base1, lim1, base2, lim2 int }

// list builds the block triple's lane list the way processBlockLanes
// does — the SNPs of b1 ∪ b2, then each (i1, i2) that an x SNP sorts
// below, its (y, z) table in lane i1 of yz table i2 — keeping each pair
// with probability keep (at least one), and returns the pairs it kept.
func (b blockTriple) list(r *rand.Rand, keep float64) (l LaneList, pairs [][2]int) {
	for i := range b.lim1 {
		l.AddSNP(b.base1 + i)
	}
	zs := 0
	if b.base1 != b.base2 {
		zs = b.lim1
		for i := range b.lim2 {
			l.AddSNP(b.base2 + i)
		}
	}
	var all [][2]int // (y, z) by their slots in b1 and b2
	for z := range b.lim2 {
		for y := max(0, b.x+1-b.base1); y < b.lim1 && b.base1+y < b.base2+z; y++ {
			all = append(all, [2]int{y, z})
		}
	}
	for j, p := range all {
		if r.Float64() < keep || len(pairs) == 0 && j == len(all)-1 {
			l.AddPair(p[0], zs+p[1], p[1], p[0])
			pairs = append(pairs, [2]int{b.base1 + p[0], b.base2 + p[1]})
		}
	}
	return l, pairs
}

// yzTables fills the block pair's (y, z) tables as the engine's
// pairTables does: table z holds b1's SNPs that sort below b2's SNP z.
func (b blockTriple) yzTables(k LaneKernel, data []uint64, words int, marg [][2]int32, n int) []LaneTable {
	yz := dirtyTables(Lanes)
	for z := range b.lim2 {
		if valid := min(b.lim1, b.base2+z-b.base1); valid > 0 {
			k.PairLanes(&yz[z], data, words, b.base1, valid, b.base2+z, marg, int32(n))
		}
	}
	return yz
}

// TestLaneBlockMatchesReference is the differential test of the block
// entry over whole lane lists: on block triples off the diagonal, on it
// (b1 = b2, where z's slot is i2 itself) and with the x block equal to b1,
// with 1 to 8 x SNPs, lists of 1 to 64 pairs and plane lengths of 0 to 300
// words, mostly off a multiple of 8 and walked in one or several word
// tiles into banks and counts reused dirty from the last list, the vector
// body's tables and counts must equal the Go body's cell for cell, every
// bank table and count past the list must be left alone, and at a spread
// of lengths every lane of every pair must equal the sample-by-sample
// count: BuildReference's cells of (x+l, y, z), and past the x SNPs those
// of a SNP that is genotype 2 everywhere.
func TestLaneBlockMatchesReference(t *testing.T) {
	if !hasAVX512 {
		t.Log("no AVX-512 VPOPCNTDQ body: the Go body alone against the reference")
	}
	r := rand.New(rand.NewSource(57))
	checked := map[int]bool{0: true, 1: true, 7: true, 9: true, 63: true, 121: true, 137: true, 255: true, 299: true, 300: true}
	var banks [2][]LaneTable
	var counts [2][]XCounts
	for b := range banks {
		banks[b], counts[b] = dirtyTables(Lanes*Lanes+1), dirtyCounts(2*Lanes+1)
	}
	for words := 0; words <= 300; words++ {
		if words%8 == 0 && !checked[words] {
			continue
		}
		pad := r.Intn(64)
		samples := max(64*words-pad, 0)
		snps := make([][2][]uint64, 3*Lanes)
		for i := range snps {
			p0, p1 := randomPlanes(r, words)
			clearTail(samples, p0, p1)
			snps[i] = [2][]uint64{p0, p1}
		}
		data, marg := classPlanes(1, words, snps)
		nx := 1 + r.Intn(Lanes)
		var bt blockTriple
		switch words % 3 {
		case 0: // b0 < b1 < b2
			bt = blockTriple{0, nx, Lanes, 1 + r.Intn(Lanes), 2 * Lanes, 1 + r.Intn(Lanes)}
		case 1: // b0 < b1 = b2
			lim := 2 + r.Intn(Lanes-1)
			bt = blockTriple{0, nx, Lanes, lim, Lanes, lim}
		default: // b0 = b1 < b2
			bt = blockTriple{Lanes, min(nx, Lanes-1), Lanes, Lanes, 2 * Lanes, 1 + r.Intn(Lanes)}
		}
		keep := []float64{1, 0.5, 0.05}[r.Intn(3)]
		l, pairs := bt.list(r, keep)
		cuts := tileCuts(r, words)
		xmarg := marg[bt.x : bt.x+bt.nx]
		for b, body := range bodies {
			if !body.oracle && !hasAVX512 {
				continue
			}
			k := LaneKernel{Oracle: body.oracle}
			restBank, restCounts := slices.Clone(banks[b][len(pairs):]), slices.Clone(counts[b][l.nsnps:])
			runBlock(k, &l, banks[b], counts[b], data, words, xmarg, bt.yzTables(k, data, words, marg, samples), bt.x, bt.nx, cuts)
			if !slices.Equal(banks[b][len(pairs):], restBank) || !slices.Equal(counts[b][l.nsnps:], restCounts) {
				t.Fatalf("words=%d %s: the block wrote past its %d pairs or %d SNPs", words, body.name, len(pairs), l.nsnps)
			}
		}
		if hasAVX512 && (!slices.Equal(banks[0][:len(pairs)], banks[1][:len(pairs)]) || !slices.Equal(counts[0][:l.nsnps], counts[1][:l.nsnps])) {
			t.Fatalf("words=%d %+v, %d pairs, tiles cut at %v: the bodies disagree", words, bt, len(pairs), cuts)
		}
		if !checked[words] {
			continue
		}
		empty := make([]uint64, words)
		for j, p := range pairs {
			y, z := snps[p[0]], snps[p[1]]
			for lane := 0; lane < Lanes; lane++ {
				x0, x1 := empty, empty
				if lane < bt.nx {
					x0, x1 = snps[bt.x+lane][0], snps[bt.x+lane][1]
				}
				want := referenceTriple(x0, x1, y[0], y[1], z[0], z[1], samples)
				if got := column(&banks[0][j], lane); got != want {
					t.Fatalf("words=%d %+v, pair %d (%d, %d), lane %d: differs from the reference\ngot  %v\nwant %v",
						words, bt, j, p[0], p[1], lane, got, want)
				}
			}
		}
	}
}

// FuzzLanesAccumulate holds the block entry to BuildReference lane by
// lane on both bodies. Each input draws a dataset (from seed) of one or
// two samples up to 38401 — classes of 1 to about 300 words, nearly
// always ending off a word boundary — and a chunk of 1 to 8 x SNPs
// (lanes) at a start of 0 to 3; shape picks whether y lies inside the
// chunk, as on the diagonal block b0 = b1, or past it, whether the
// chunk's first SNP and y are monomorphic, and how many word tiles (one
// to three, cut at random words) each class is walked in, the later ones
// through the add path. The lane list holds every SNP past the chunk's
// first and, besides (y, z), a random share of the other pairs of them,
// each with its own (y, z) table at y's lane of its run of eight; banks
// and counts arrive dirty. Every x lane's two class columns of (y, z)
// must equal BuildReference's table of (x+l, y, z), and every lane past
// the chunk the table of a SNP that is genotype 2 everywhere:
// BuildReferencePair's (y, z) cells in rows 18..26; the two bodies must
// agree on every pair of the list.
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
		var l LaneList
		for s := x + 1; s < m; s++ {
			l.AddSNP(s)
		}
		var pairs [][2]int
		target := 0
		for py := x + 1; py < m; py++ {
			for pz := py + 1; pz < m; pz++ {
				if py == y && pz == z {
					target = len(pairs)
				} else if r.Intn(2) == 0 {
					continue
				}
				l.AddPair(py-x-1, pz-x-1, len(pairs), py%Lanes)
				pairs = append(pairs, [2]int{py, pz})
			}
		}
		var got [2][2][]LaneTable // body, class
		for b, body := range bodies {
			if !body.oracle && !hasAVX512 {
				continue
			}
			k := LaneKernel{Oracle: body.oracle}
			for class := range got[b] {
				words, data := split.Words[class], split.ClassPlaneData(class)
				marg := make([][2]int32, m)
				for snp := range marg {
					for g := range marg[snp] {
						marg[snp][g] = int32(bitvec.PopCount(split.Plane(class, snp, g)))
					}
				}
				yz := dirtyTables(len(pairs))
				for j, p := range pairs {
					run := p[0] - p[0]%Lanes
					k.PairLanes(&yz[j], data, words, run, min(Lanes, m-run), p[1], marg, int32(split.N[class]))
				}
				var cuts []int
				for _, w := range r.Perm(max(words-1, 0))[:min(tiles-1, max(words-1, 0))] {
					cuts = append(cuts, w+1)
				}
				slices.Sort(cuts)
				got[b][class] = dirtyTables(len(pairs))
				runBlock(k, &l, got[b][class], dirtyCounts(l.nsnps), data, words, marg[x:x+nx], yz, x, nx, cuts)
			}
			pair := BuildReferencePair(mx, y, z)
			for lane := 0; lane < Lanes; lane++ {
				var want Table
				if lane < nx {
					want = BuildReference(mx, x+lane, y, z)
				} else {
					for class := range want.Counts {
						copy(want.Counts[class][2*PairCells:], pair.Counts[class][:PairCells])
					}
				}
				for class := range got[b] {
					if c := column(&got[b][class][target], lane); c != want.Counts[class] {
						t.Fatalf("n=%d %s body, class %d, %d tiles: lane %d of %d, triple (%d+%d, %d, %d) differs from the reference\ngot  %v\nwant %v",
							n, body.name, class, tiles, lane, nx, x, lane, y, z, c, want.Counts[class])
					}
				}
			}
		}
		if hasAVX512 {
			for class := range got[0] {
				if !slices.Equal(got[0][class], got[1][class]) {
					t.Fatalf("n=%d class %d, %d tiles, %d pairs: the bodies disagree", n, class, tiles, len(pairs))
				}
			}
		}
	})
}

// BenchmarkLanes times the lanes pass on both bodies at the plane lengths
// of a 500-sample class, one vector, an 8192-sample class, a default tile,
// a 16384-sample class of one tile and a bit, and two tiles and a bit:
// as pair/, what one (y, z) of a block triple costs at the engine's fused
// block of Lanes SNPs — one Block call per word tile over a list of 2·Lanes
// SNPs and Lanes² pairs, the last deriving, reported per pair — and as
// seeded/, one call per tile over a list of one pair, as the seeded
// extension runs it, both on x tiles transposed beforehand; and the
// transpose that feeds them, of a full chunk and of a partial one, tile
// by tile into one reused tile-sized buffer as the engine does.
func BenchmarkLanes(b *testing.B) {
	const tile, bs = 120, Lanes
	for _, words := range []int{4, 8, 64, 120, 137, 256} {
		r := rand.New(rand.NewSource(5))
		snps := make([][2][]uint64, Lanes+2*bs)
		for i := range snps {
			p0, p1 := randomPlanes(r, words)
			snps[i] = [2][]uint64{p0, p1}
		}
		data, marg := classPlanes(0, words, snps)
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
		block, _ := blockTriple{0, Lanes, Lanes, bs, Lanes + bs, bs}.list(r, 1)
		var seeded LaneList
		seeded.AddSNP(Lanes)
		seeded.AddSNP(Lanes + bs)
		seeded.AddPair(0, 1, 0, 0)
		bank, yz := make([]LaneTable, bs*bs), make([]LaneTable, bs)
		xc := make([]XCounts, 2*bs)
		xt := make([]uint64, LaneTileWords(words))
		for i := 0; i < words; i += tile {
			TransposeLanes(xt[LaneTileWords(i):], data[:2*Lanes*words], words, i, min(i+tile, words))
		}
		for _, body := range bodies {
			k := LaneKernel{Oracle: body.oracle}
			name := fmt.Sprintf("%dw/%s", words, body.name)
			for _, arm := range []struct {
				name string
				l    *LaneList
			}{{"pair/", &block}, {"seeded/", &seeded}} {
				b.Run(arm.name+name, func(b *testing.B) {
					skipWithoutAssembly(b, body.oracle)
					for i := 0; i < b.N; i++ {
						for w0 := 0; w0 < words; w0 += tile {
							k.Block(bank, xc, arm.l, xt[LaneTileWords(w0):], data, words, w0, min(w0+tile, words), marg[:Lanes], yz)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(arm.l.Pairs()), "ns/pair")
				})
			}
		}
	}
}
