package permtest

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"trigene/internal/bitvec"
	"trigene/internal/contingency"
)

// testBlock is a block of 64·r case planes over n samples and its sample
// rows laid out bit by bit — the layout both transposes must produce —
// with the zero row past the last tile's rows. The planes' words come
// from word: random, all cases, or sparse.
type testBlock struct {
	n, r, words int
	planes      [][]uint64
	rows        []uint64
	zero        int32 // the zero row's sample
}

func newTestBlock(rng *rand.Rand, n, r int, word func(*rand.Rand) uint64) *testBlock {
	b := &testBlock{n: n, r: r, words: bitvec.WordsFor(n)}
	b.rows = make([]uint64, (64*b.words+1)*r)
	b.zero = int32(64 * b.words)
	for p := 0; p < 64*r; p++ {
		plane := make([]uint64, b.words)
		for w := range plane {
			plane[w] = word(rng)
		}
		if b.words > 0 {
			plane[b.words-1] &= bitvec.TailMask(n)
		}
		b.planes = append(b.planes, plane)
		for s := 0; s < n; s++ {
			b.rows[s*r+p/64] |= (plane[s/64] >> (s % 64) & 1) << (p % 64)
		}
	}
	return b
}

// Plane words: half the samples cases, all of them, about one in eight.
func randomWord(rng *rand.Rand) uint64 { return rng.Uint64() }
func allCases(*rand.Rand) uint64       { return ^uint64(0) }
func sparseWord(rng *rand.Rand) uint64 {
	return rng.Uint64() & rng.Uint64() & rng.Uint64()
}

// slab lays planes 64j..64j+63 out slabStride apart, as a worker draws
// them, with garbage between.
func (b *testBlock) slab(j int) []uint64 {
	stride := slabStride(b.words)
	slab := make([]uint64, 64*stride)
	for i := range slab {
		slab[i] = 0x5a5a5a5a5a5a5a5a
	}
	for i, p := range b.planes[64*j : 64*j+64] {
		copy(slab[i*stride:], p)
	}
	return slab
}

// list lays the samples out as a cell's list, padded as buildCand pads
// it.
func (b *testBlock) list(samples []int) []int32 {
	list := make([]int32, len(samples), len(samples)+offsPad)
	for i, s := range samples {
		list[i] = int32(s)
	}
	for i := 0; i < offsPad; i++ {
		list = append(list, b.zero)
	}
	return list[:len(samples)]
}

// TestTransposeBodies: both transposes turn every slab of 64 planes into
// its word of the sample rows bit for bit, for cohorts on and off a word
// boundary and rows of 1 to 8 words, leaving the other words alone. The
// vector body works on eight plane words, a cache line, at a time, so
// planes of 1 to 7 words past a multiple of 8 read a line past their last
// word: from the slab's pad, which holds garbage here, and for the last
// plane from no further than the slab's end (newTestBlock's slab is no
// longer than a worker's).
func TestTransposeBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, n := range []int{1, 63, 64, 65, 130, 200, 300, 380, 420, 512, 1000, 4097} {
		for r := 1; r <= 8; r++ {
			blk := newTestBlock(rng, n, r, randomWord)
			for _, body := range planeBodies {
				if body.vector && !contingency.HasAVX512() {
					continue
				}
				got := make([]uint64, len(blk.rows))
				for i := range got {
					got[i] = 0xa5a5a5a5a5a5a5a5
				}
				got[len(got)-r] = 0 // the zero row is the caller's
				for j := 0; j < r; j++ {
					transpose(got, r, j, blk.slab(j), blk.words, body.vector)
				}
				for i, want := range blk.rows[:len(blk.rows)-r] {
					if got[i] != want {
						t.Fatalf("%s n=%d r=%d: row %d word %d = %#x, want %#x", body.name, n, r, i/r, i%r, got[i], want)
					}
				}
			}
		}
	}
}

// checkCellCounts runs cellCounts on every chunk of the block with one
// body and holds each count to the popcount of the cell's samples AND the
// permutation's plane; ctrl must be the rest of the cell, and no entry of
// cases or ctrl outside the lane rows may be written.
func checkCellCounts(t *testing.T, blk *testBlock, samples []int, gs int, vector bool) {
	t.Helper()
	combo := make([]uint64, blk.words)
	for _, s := range samples {
		combo[s/64] |= 1 << (s % 64)
	}
	list := blk.list(samples)
	ctr := make([]uint64, ctrLevels*8)
	const dirty = -7777
	for _, ch := range chunksOf(blk.r, 8) {
		j0, w := ch[0], ch[1]
		size := 8 * w * gs
		cases, ctrl := make([][8]int32, size), make([][8]int32, size)
		for i := range cases {
			for l := range cases[i] {
				cases[i][l], ctrl[i][l] = dirty, dirty
			}
		}
		cellCounts(cases, ctrl, gs, blk.rows[j0:], list, blk.r, w, ctr, vector)
		written := make([][8]bool, size)
		for b := 0; b < 64*w; b++ {
			i, l := b/8*gs, b%8
			written[i][l] = true
			plane := blk.planes[64*j0+b]
			want := 0
			for k := range combo {
				want += bits.OnesCount64(combo[k] & plane[k])
			}
			if int(cases[i][l]) != want || int(ctrl[i][l]) != len(samples)-want {
				t.Fatalf("vector=%v n=%d r=%d chunk %v gs=%d, %d samples: permutation %d counts %d cases %d controls, want %d and %d",
					vector, blk.n, blk.r, ch, gs, len(samples), 64*j0+b, cases[i][l], ctrl[i][l], want, len(samples)-want)
			}
		}
		for i := range written {
			for l, w := range written[i] {
				if !w && (cases[i][l] != dirty || ctrl[i][l] != dirty) {
					t.Fatalf("vector=%v n=%d r=%d chunk %v gs=%d: row %d lane %d outside the lane rows written", vector, blk.n, blk.r, ch, gs, i, l)
				}
			}
		}
	}
}

// TestCellCountsBodies holds both bodies of the counter to per-permutation
// popcounts on cells of every size class — empty, one sample, a handful,
// a few hundred, every sample — in cohorts on and off a word boundary,
// below 64 samples, and over rows of 1 to 8 words (so every chunk width
// and every count of rows per vector), at lane-table and count-matrix
// group strides. Planes where every sample is a case fill each cell's
// counter to its top level; sparse ones leave the upper levels empty.
func TestCellCountsBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{1, 40, 64, 65, 300, 1111} {
		for r := 1; r <= 8; r++ {
			for _, word := range []func(*rand.Rand) uint64{randomWord, allCases, sparseWord} {
				blk := newTestBlock(rng, n, r, word)
				all := rng.Perm(n)
				cells := [][]int{nil, all[:1], all[:min(5, n)], all[:n*2/3], all}
				for _, samples := range cells {
					for _, gs := range []int{contingency.Cells, 1} {
						for _, body := range planeBodies {
							if body.vector && !contingency.HasAVX512() {
								continue
							}
							checkCellCounts(t, blk, samples, gs, body.vector)
						}
					}
				}
			}
		}
	}
}

// TestCellCountsStayInsideTheCell: K2's lane scoring checks only the
// rows it reads, so the permuted tables it is given must be certified
// where they are counted. For cells whose sizes sit at the edges of the
// counter's levels (2^k − 1, 2^k and 2^k + 1 samples, so that the top
// level is barely used, just reached and just passed), in cohorts off a
// word boundary, on rows of 1 to 8 words (so groups of eight permutations
// and every chunk width), under planes where every sample, no sample or a
// random half is a case, both bodies of the counter give every
// permutation a case count in [0, cell size] and a control count that
// makes up the rest.
func TestCellCountsStayInsideTheCell(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	noCases := func(*rand.Rand) uint64 { return 0 }
	for _, n := range []int{300, 1111} {
		for _, r := range []int{1, 3, 8} {
			for _, word := range []func(*rand.Rand) uint64{randomWord, allCases, noCases} {
				blk := newTestBlock(rng, n, r, word)
				all := rng.Perm(n)
				for k := 0; 1<<k <= n; k++ {
					for _, size := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
						if size > n {
							continue
						}
						list := blk.list(all[:size])
						for _, body := range planeBodies {
							if body.vector && !contingency.HasAVX512() {
								continue
							}
							ctr := make([]uint64, ctrLevels*8)
							for _, ch := range chunksOf(r, 8) {
								j0, w := ch[0], ch[1]
								gs := contingency.Cells
								cases, ctrl := make([][8]int32, 8*w*gs), make([][8]int32, 8*w*gs)
								cellCounts(cases, ctrl, gs, blk.rows[j0:], list, r, w, ctr, body.vector)
								for b := 0; b < 64*w; b++ {
									c, rest := cases[b/8*gs][b%8], ctrl[b/8*gs][b%8]
									if c < 0 || c > int32(size) || c+rest != int32(size) {
										t.Fatalf("%s n=%d r=%d chunk %v, cell of %d: permutation %d counts %d cases and %d controls",
											body.name, n, r, ch, size, 64*j0+b, c, rest)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCellCountsDeepCounter: cells every sample of which is a case fill
// every level of their counters. A cell of 70 001 samples needs 17; to
// reach all ctrLevels of the vector body's counter at every chunk width
// (a counter of a w-word chunk holds 8/w rows a vector, so it takes
// 2^ctrLevels·w/8 rows to fill), a cell lists one sample 2^ctrLevels − 1
// times. Both bodies count them exactly.
func TestCellCountsDeepCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, r := range []int{1, 2} {
		blk := newTestBlock(rng, 70001, r, allCases)
		all := make([]int, blk.n)
		for s := range all {
			all[s] = s
		}
		for _, body := range planeBodies {
			if body.vector && !contingency.HasAVX512() {
				continue
			}
			checkCellCounts(t, blk, all, 1, body.vector)
		}
	}

	const deep = 1<<ctrLevels - 1
	for _, r := range []int{1, 2, 4, 8} {
		blk := newTestBlock(rng, 64, r, allCases)
		list := make([]int32, deep, deep+offsPad)
		for i := 0; i < offsPad; i++ {
			list = append(list, blk.zero)
		}
		list = list[:deep] // sample 0, every time
		ctr := make([]uint64, ctrLevels*8)
		for _, ch := range chunksOf(r, 8) {
			j0, w := ch[0], ch[1]
			for _, body := range planeBodies {
				if body.vector && !contingency.HasAVX512() {
					continue
				}
				cases, ctrl := make([][8]int32, 8*w), make([][8]int32, 8*w)
				cellCounts(cases, ctrl, 1, blk.rows[j0:], list, r, w, ctr, body.vector)
				for b := 0; b < 64*w; b++ {
					if c, k := cases[b/8][b%8], ctrl[b/8][b%8]; c != deep || k != 0 {
						t.Fatalf("%s r=%d chunk %v permutation %d: %d cases, %d controls of %d rows all cases",
							body.name, r, ch, b, c, k, deep)
					}
				}
			}
		}
	}
}

// FuzzBlockCount feeds arbitrary plane contents, cohort sizes, row widths
// and cells to the two primitives: each transpose must give the bit-by-bit
// rows, and each body of the counter the per-permutation popcounts of the
// cell AND the planes.
func FuzzBlockCount(f *testing.F) {
	f.Add(uint16(100), uint8(1), []byte{1, 2, 3}, int64(1))
	f.Add(uint16(64), uint8(4), []byte{}, int64(2))
	f.Add(uint16(1000), uint8(6), []byte{0xff, 0x10, 0x80, 7}, int64(3))
	// Rows of 1, 2, 4 and 8 words over planes 1 to 7 words past a
	// multiple of 8.
	f.Add(uint16(64), uint8(0), []byte{5, 0, 9, 0}, int64(4))
	f.Add(uint16(129), uint8(1), []byte{1}, int64(5))
	f.Add(uint16(200), uint8(3), []byte{7, 0, 100, 0}, int64(6))
	f.Add(uint16(300), uint8(7), []byte{3}, int64(7))
	f.Add(uint16(380), uint8(1), []byte{44, 1}, int64(8))
	f.Add(uint16(420), uint8(3), []byte{1, 1, 2, 1}, int64(9))
	f.Add(uint16(1921), uint8(7), []byte{9, 9}, int64(10))
	f.Add(uint16(100), uint8(0), []byte{2, 0}, int64(11))
	f.Fuzz(func(t *testing.T, n uint16, r uint8, cell []byte, seed int64) {
		nn := int(n)%2000 + 1
		rr := int(r)%8 + 1
		word := []func(*rand.Rand) uint64{randomWord, allCases, sparseWord}[uint64(seed)%3]
		blk := newTestBlock(rand.New(rand.NewSource(seed)), nn, rr, word)
		// The cell: each byte pair names a sample; repeats are dropped.
		seen := make(map[int]bool)
		var samples []int
		for i := 0; i+1 < len(cell); i += 2 {
			s := int(binary.LittleEndian.Uint16(cell[i:])) % nn
			if !seen[s] {
				seen[s] = true
				samples = append(samples, s)
			}
		}
		if len(cell)%2 == 1 && cell[len(cell)-1]&1 == 1 {
			samples = samples[:0] // every sample, in order
			for s := 0; s < nn; s++ {
				samples = append(samples, s)
			}
		}
		for _, body := range planeBodies {
			if body.vector && !contingency.HasAVX512() {
				continue
			}
			got := make([]uint64, len(blk.rows))
			for j := 0; j < rr; j++ {
				transpose(got, rr, j, blk.slab(j), blk.words, body.vector)
			}
			for i, want := range blk.rows {
				if got[i] != want {
					t.Fatalf("%s n=%d r=%d: transposed row %d word %d = %#x, want %#x", body.name, nn, rr, i/rr, i%rr, got[i], want)
				}
			}
			checkCellCounts(t, blk, samples, contingency.Cells, body.vector)
		}
	})
}

// BenchmarkTranspose times the transpose of one block, r slabs of 64
// drawn planes, into its sample rows, on both bodies, at the benchmark's
// two plane widths and rows of 4 and 8 words.
func BenchmarkTranspose(b *testing.B) {
	for _, body := range planeBodies {
		for _, n := range []int{500, 16384} {
			for _, r := range []int{4, 8} {
				b.Run(fmt.Sprintf("body=%s/n=%d/r=%d", body.name, n, r), func(b *testing.B) {
					if body.vector && !contingency.HasAVX512() {
						b.Skip("no AVX-512 body in this build or on this host")
					}
					words := bitvec.WordsFor(n)
					rng := rand.New(rand.NewSource(1))
					slab := make([]uint64, 64*slabStride(words))
					for i := range slab {
						slab[i] = rng.Uint64()
					}
					rows := make([]uint64, (64*words+1)*r)
					for i := 0; i < b.N; i++ {
						for j := 0; j < r; j++ {
							transpose(rows, r, j, slab, words, body.vector)
						}
					}
				})
			}
		}
	}
}
