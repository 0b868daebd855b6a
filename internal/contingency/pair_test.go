package contingency

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"trigene/internal/bitvec"
	"trigene/internal/dataset"
)

// referencePairCells counts the nine pair cells one sample (bit) at a
// time over the first samples bits of the planes.
func referencePairCells(x0, x1, y0, y1 []uint64, samples int) (ft [Cells]int32) {
	for s := 0; s < samples; s++ {
		ft[PairComboIndex(sampleGeno(x0, x1, s), sampleGeno(y0, y1, s))]++
	}
	return ft
}

// classPlanes lays the planes of snps out the way dataset.Split stores a
// class, plane g of SNP i at (2i+g)*words, skip words into their array
// (so that no load is aligned the way the planes' own arrays were), and
// counts each SNP's marginals {|plane 0|, |plane 1|}.
func classPlanes(skip, words int, snps [][2][]uint64) (data []uint64, marg [][2]int32) {
	data = make([]uint64, skip+2*len(snps)*words)[skip:]
	marg = make([][2]int32, len(snps))
	for i, p := range snps {
		for g, plane := range p {
			copy(data[(2*i+g)*words:], plane[:words])
			marg[i][g] = int32(bitvec.PopCount(plane[:words]))
		}
	}
	return data, marg
}

// pairLaneCells runs PairLanes with one body over the pairs (x+l, y),
// l < valid, of a class of the given size. The lane table arrives dirty:
// rows 0..8 of the valid lanes must be overwritten, rows 9..26 left alone.
func pairLaneCells(vector bool, data []uint64, words, x, valid, y int, marg [][2]int32, samples int) (lt LaneTable) {
	const dirty = -7
	for row := range lt {
		for l := range lt[row] {
			lt[row][l] = dirty
		}
	}
	pairLanes(&lt, data, words, x, valid, y, marg, int32(samples), vector)
	for row := PairCells; row < Cells; row++ {
		if lt[row] != [Lanes]int32{dirty, dirty, dirty, dirty, dirty, dirty, dirty, dirty} {
			panic("PairLanes wrote outside the nine pair rows")
		}
	}
	return lt
}

// laneColumn is lane l of a lane table as an embedded table's cells.
func laneColumn(lt *LaneTable, l int) (ft [Cells]int32) {
	for row := 0; row < PairCells; row++ {
		ft[row] = lt[row][l]
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
// pair primitive: for every plane length from 0 to 80 words (every
// residue of the 8-word vector, ten vectors deep) and every seventh one up
// to 300, over random, all-zero, all-one and pad-carrying planes, in
// classes laid out one word into their arrays (so no load is 64-byte
// aligned) with the y SNP after the lanes' SNPs, as a scan meets it, or
// before them, each body must give every one of 1 to 8 valid lanes the
// sample-by-sample count, cell for cell. The pad-carrying shapes end
// 1..63 samples short of the last word: with no NOR in the kernel the pad
// must never reach cell 8, uncorrected.
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
				if n > 80 && n%7 != 0 {
					continue
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
				for si, sh := range shapes {
					samples := 64*n - sh.pad
					if samples < 0 {
						continue
					}
					valid := 1 + (n+si)%Lanes
					yFirst := (n+si)/Lanes%2 == 1
					snps := make([][2][]uint64, valid+1)
					x, y := 0, valid
					if yFirst {
						x, y = 1, 0
					}
					for k := range snps {
						f := sh.x
						if k == y {
							f = sh.y
						}
						p0, p1 := f(n)
						clearTail(samples, p0, p1)
						snps[k] = [2][]uint64{p0, p1}
					}
					data, marg := classPlanes(1, n, snps)
					lt := pairLaneCells(!body.oracle, data, n, x, valid, y, marg, samples)
					for l := 0; l < valid; l++ {
						want := referencePairCells(snps[x+l][0], snps[x+l][1], snps[y][0], snps[y][1], samples)
						if got := laneColumn(&lt, l); got != want {
							t.Fatalf("n=%d %s, lane %d of %d, y first %v: pair cells differ from the reference\ngot  %v\nwant %v",
								n, sh.name, l, valid, yFirst, got[:PairCells], want[:PairCells])
						}
					}
				}
			}
		})
	}
}

// TestPairLanesMatchReferenceTable runs the exported entry point over
// split encodings with ragged classes (173, 65 and 40 samples), a
// pad-free one (128), and classes of several vectors with ragged tails:
// from every x a pair scan may start a group at, each of up to eight
// lanes must get BuildReferencePair's table, with no correction applied.
// It also pins what the stub's //go:noescape buys: the lane table lives
// on the stack and goes to the assembly by pointer.
func TestPairLanesMatchReferenceTable(t *testing.T) {
	const m = 11
	for _, samples := range []int{173, 65, 128, 40, 1100, 4133} {
		mx := randomMatrix(int64(200+samples), m, samples)
		s := dataset.SplitBinarize(mx)
		var marg [2][][2]int32
		for class := range marg {
			marg[class] = make([][2]int32, m)
			for snp := range marg[class] {
				for g := range marg[class][snp] {
					marg[class][snp][g] = int32(bitvec.PopCount(s.Plane(class, snp, g)))
				}
			}
		}
		build := func(lt *[2]LaneTable, x, valid, y int) {
			for class := range lt {
				LaneKernel{}.PairLanes(&lt[class], s.ClassPlaneData(class), s.Words[class], x, valid, y, marg[class], int32(s.N[class]))
			}
		}
		for y := 1; y < m; y++ {
			for x := 0; x < y; x++ {
				valid := min(Lanes, y-x)
				var lt [2]LaneTable
				build(&lt, x, valid, y)
				for l := 0; l < valid; l++ {
					var got Table
					for class := range lt {
						got.Counts[class] = laneColumn(&lt[class], l)
					}
					if want := BuildReferencePair(mx, x+l, y); !got.Equal(&want) {
						t.Fatalf("samples=%d pair (%d,%d): table differs from the reference\ngot:\n%swant:\n%s",
							samples, x+l, y, got.String(), want.String())
					}
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			var lt [2]LaneTable
			build(&lt, 1, Lanes, 10)
		}); allocs != 0 {
			t.Errorf("samples=%d: PairLanes allocates %.0f times per call", samples, allocs)
		}
	}
}

// TestPairLanesStaysInsideTheClass: K2's lane scoring checks only the
// rows it reads, so the counts it is given must be certified where they
// are made. On split encodings whose classes end off a word boundary and
// on a pad-free one, for every y and every group of 1 to 8 x SNPs a pair
// scan or a seed could start at, on both bodies, every count PairLanes
// writes into a valid lane lies in [0, class size] and each lane's nine
// cells sum to the class size.
func TestPairLanesStaysInsideTheClass(t *testing.T) {
	const m = 13
	for _, samples := range []int{173, 65, 128, 40, 1100} {
		mx := randomMatrix(int64(400+samples), m, samples)
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
				for y := 0; y < m; y++ {
					for x := 0; x < m; x++ {
						for valid := 1; valid <= min(Lanes, m-x); valid++ {
							if x <= y && y < x+valid {
								continue // y is one of the lanes' SNPs
							}
							lt := pairLaneCells(!body.oracle, data, words, x, valid, y, marg, int(size))
							for l := 0; l < valid; l++ {
								var sum int32
								col := laneColumn(&lt, l)
								for cell, c := range col[:PairCells] {
									if c < 0 || c > size {
										t.Fatalf("samples=%d class %d %s: pair (%d+%d, %d) of %d lanes, cell %d = %d, class size %d",
											samples, class, body.name, x, l, y, valid, cell, c, size)
									}
									sum += c
								}
								if sum != size {
									t.Fatalf("samples=%d class %d %s: pair (%d+%d, %d) of %d lanes sums to %d, class size %d",
										samples, class, body.name, x, l, y, valid, sum, size)
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzPairAccumulate feeds arbitrary plane contents, lengths and sample
// counts to both bodies of the pair primitive: every one of 1 to 8 valid
// lanes must get the sample-by-sample reference's cells. shape picks the
// number of lanes, whether the y SNP sits after or before them and the
// classes' alignment; the planes are cut from data, each SNP's plane 1 is
// made disjoint from its plane 0 and the pad bits are cleared, the two
// properties the loaders guarantee.
func FuzzPairAccumulate(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(make([]byte, 4*8*9), uint8(1), uint8(63))
	seed := make([]byte, 4*8*37)
	rand.New(rand.NewSource(81)).Read(seed)
	f.Add(seed, uint8(3), uint8(29))
	f.Fuzz(func(t *testing.T, data []byte, shape, pad uint8) {
		valid := 1 + int(shape%Lanes)
		yFirst := shape&Lanes != 0
		skip := int(shape>>4) % 4
		snps := make([][2][]uint64, valid+1)
		n := min(len(data)/(2*len(snps)*8), 512)
		for k := range snps {
			for g := range snps[k] {
				p := make([]uint64, n)
				for w := range p {
					p[w] = binary.LittleEndian.Uint64(data[((2*k+g)*n+w)*8:])
				}
				snps[k][g] = p
			}
			for w := range snps[k][1] {
				snps[k][1][w] &^= snps[k][0][w]
			}
		}
		samples := 64 * n
		if n > 0 {
			samples -= int(pad % 64)
		}
		for _, p := range snps {
			clearTail(samples, p[0], p[1])
		}
		x, y := 0, valid
		if yFirst {
			x, y = 1, 0
		}
		cls, marg := classPlanes(skip, n, snps)
		for _, body := range bodies {
			if !body.oracle && !hasAVX512 {
				continue
			}
			lt := pairLaneCells(!body.oracle, cls, n, x, valid, y, marg, samples)
			for l := 0; l < valid; l++ {
				want := referencePairCells(snps[x+l][0], snps[x+l][1], snps[y][0], snps[y][1], samples)
				if got := laneColumn(&lt, l); got != want {
					t.Fatalf("n=%d lane %d of %d, y first %v: %s body differs from the reference\ngot  %v\nwant %v",
						n, l, valid, yFirst, body.name, got[:PairCells], want[:PairCells])
				}
			}
		}
	})
}
