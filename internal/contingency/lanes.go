package contingency

import (
	"math"
	"math/bits"
)

// Lanes is how many x SNPs one pass of the triple lanes pass counts: one
// per 64-bit lane of a 512-bit vector.
const Lanes = 8

// LaneTable holds one class's counts of the Lanes triples (x[lane], y, z)
// of a lanes pass: row cell, column lane — each row one vector of the
// pass, so nothing is reduced across lanes on the way out.
type LaneTable [Cells][Lanes]int32

// XCounts holds one class's four counted pair cells of the Lanes x SNPs
// of a lanes pass against one SNP s: row 2a+b, column lane, is the number
// of samples with genotype a of x SNP lane and genotype b of s (a, b in
// {0, 1}, the stored planes).
type XCounts [PairCounted][Lanes]int32

// tripleRows are the rows of a triple's table the lanes pass counts:
// ComboIndex(a, b, c) for a, b, c in {0, 1}, in the order i = 4a+2b+c.
var tripleRows = [TripleCounted]int{0, 1, 3, 4, 9, 10, 12, 13}

// LaneTileWords is the size of the x tile of a lanes pass over a word
// range of the given length.
func LaneTileWords(words int) int { return 2 * Lanes * words }

// TransposeLanes lays words [w0, w1) of the stored planes of up to Lanes
// consecutive SNPs out as the x tile of a lanes pass over that range:
// dst[(w*2+g)*Lanes+lane] is word w0+w of genotype plane g of SNP lane.
// src holds the SNPs' whole planes end to end, (snp*2+g)*words, the way
// dataset.Split stores a class. Lanes past the SNPs given read zeroPlane:
// a SNP no sample carries genotype 0 or 1 of, whose counts are
// well-formed and which the caller ignores. The tile is written a word of
// the range at a time, 16 sequential stores into two lines, for any
// number of SNPs.
func TransposeLanes(dst, src []uint64, words, w0, w1 int) {
	if words == 0 {
		return
	}
	n := len(src) / (2 * words)
	dst = dst[:LaneTileWords(w1-w0)]
	for ; w0 < w1; w0 += len(zeroPlane) {
		tile := min(w1-w0, len(zeroPlane))
		var p [2 * Lanes][]uint64 // row 2*lane+g, as in src
		for r := range p {
			p[r] = zeroPlane[:]
			if r < 2*n {
				p[r] = src[r*words+w0:]
			}
		}
		row := func(r int) []uint64 { return p[r][:tile] }
		a0, a1, b0, b1, c0, c1, d0, d1 := row(0), row(1), row(2), row(3), row(4), row(5), row(6), row(7)
		e0, e1, f0, f1, g0, g1, h0, h1 := row(8), row(9), row(10), row(11), row(12), row(13), row(14), row(15)
		for w := range a0 {
			d := (*[2 * Lanes]uint64)(dst[2*w*Lanes:])
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0[w], b0[w], c0[w], d0[w], e0[w], f0[w], g0[w], h0[w]
			d[8], d[9], d[10], d[11], d[12], d[13], d[14], d[15] = a1[w], b1[w], c1[w], d1[w], e1[w], f1[w], g1[w], h1[w]
		}
		dst = dst[LaneTileWords(tile):]
	}
}

// zeroPlane is the planes of the lanes TransposeLanes is given no SNP
// for; a longer range is laid out in pieces of its length.
var zeroPlane [256]uint64

// LaneKernel runs the triple lanes pass — Block per class and word tile,
// after PairLanes per block pair — on the bodies chosen for the host at
// start-up, or, with Oracle, on the pure-Go bodies whatever the host
// supports (the reference pipeline's pin). Both bodies walk the same
// LaneList.
//
// Of a triple's 27 cells per class, eight are counted per (y, z): the
// products of stored planes, x_a ∧ y_b ∧ z_c for a, b, c in {0, 1}. The
// pair cells x_a ∧ s_b are counted once per SNP s the x lanes meet, the
// (y, z) tables once per block pair they meet, and |x_a| once per search.
// Every sample carries exactly one genotype of each SNP, so the other 19
// cells are sums of those minus counted ones (derived). No genotype-2
// plane is formed, so pad bits never enter a count and the tables need no
// pad correction. The planes of a SNP must be disjoint, which the dataset
// loaders guarantee.
type LaneKernel struct{ Oracle bool }

// vector reports whether the kernel runs the host's assembly bodies.
func (k LaneKernel) vector() bool { return hasAVX512 && !k.Oracle }

// LaneList is the work of one block entry (LaneKernel.Block): the SNPs
// the x lanes are counted against, and the (y, z) pairs whose triples
// with them are counted and derived. At most 2·Lanes SNPs and Lanes²
// pairs, the most one block triple of lane groups meets; a list is a
// value, so it allocates nothing.
type LaneList struct {
	snps   [2 * Lanes]int32
	pairs  [Lanes * Lanes]lanePair
	nsnps  int
	npairs int
	top    int32 // the largest SNP of snps
	tables int32 // one past the largest yz table a pair names
}

// lanePair is one (y, z) of a LaneList: the two SNPs, the slots of their
// pair counts (slot i is SNP i of the list), and where their pair table
// lies: column col of yz table table. The vector body reads it by offset.
type lanePair struct{ y, z, ySlot, zSlot, table, col int32 }

// Reset empties the list.
func (l *LaneList) Reset() { l.nsnps, l.npairs, l.top, l.tables = 0, 0, 0, 0 }

// AddSNP appends SNP s to the list's SNPs; its slot is its position.
func (l *LaneList) AddSNP(s int) {
	if s < 0 || s > math.MaxInt32 || l.nsnps == len(l.snps) {
		panic("contingency: lane list SNP out of range or list full")
	}
	l.snps[l.nsnps] = int32(s)
	l.nsnps++
	l.top = max(l.top, int32(s))
}

// AddPair appends the pair of the SNPs in slots y and z, whose (y, z)
// pair table is column col of yz table table.
func (l *LaneList) AddPair(y, z, table, col int) {
	if y < 0 || y >= l.nsnps || z < 0 || z >= l.nsnps || table < 0 || table >= Lanes*Lanes || col < 0 || col >= Lanes || l.npairs == len(l.pairs) {
		panic("contingency: lane list pair out of range or list full")
	}
	l.pairs[l.npairs] = lanePair{y: l.snps[y], z: l.snps[z], ySlot: int32(y), zSlot: int32(z), table: int32(table), col: int32(col)}
	l.npairs++
	l.tables = max(l.tables, int32(table)+1)
}

// Pairs returns how many pairs the list holds.
func (l *LaneList) Pairs() int { return l.npairs }

// Pair returns the SNPs of the list's j'th pair.
func (l *LaneList) Pair(j int) (y, z int) {
	p := l.pairs[:l.npairs][j]
	return int(p.y), int(p.z)
}

// Block runs one word tile [w0, w1) of one class through the list: the
// x tile xt of the range (TransposeLanes) is counted against each SNP of
// the list into xc[slot] — the four pair cells x_a ∧ s_b — and against
// each pair (y, z) into bank[j], the j'th pair's lane table — the eight
// cells x_a ∧ y_b ∧ z_c in rows 0, 1, 3, 4, 9, 10, 12 and 13. Both set
// their rows on the class's first tile (w0 = 0) and add to them on the
// others, so that a plane cut into word tiles is one call per tile. The
// last tile (w1 = words) also derives each pair's other 19 rows, while
// the eight counted ones are at hand: from xc of y and of z, xmarg, the x
// SNPs' {|x0|, |x1|} (one per lane; lanes past it count as no SNP), and
// the pair's (y, z) table (PairLanes) in yz. With T[a][b][c] the cell of
// genotypes (a, b, c):
//
//	T[a][b][2] = XY[a][b] − T[a][b][0] − T[a][b][1]
//	T[a][2][c] = XZ[a][c] − T[a][0][c] − T[a][1][c]
//	T[a][2][2] = |x_a| − XY[a][0] − XY[a][1] − T[a][2][0] − T[a][2][1]
//	T[2][b][c] = YZ[b][c] − T[0][b][c] − T[1][b][c]
//
// for a, b, c in {0, 1} in the first three and b, c in {0, 1, 2} in the
// last: 19 rows, each a vector subtraction across the lanes. data holds
// the class's planes as dataset.Split stores them, plane g of SNP i at
// (2i+g)*words. Per word, pair and cell, one three-way AND, one POPCNT
// and one add for all eight lanes.
func (k LaneKernel) Block(bank []LaneTable, xc []XCounts, l *LaneList, xt, data []uint64, words, w0, w1 int, xmarg [][2]int32, yz []LaneTable) {
	n, derive := w1-w0, w1 == words
	if w0 < 0 || n < 0 || w1 > words || len(xt) < LaneTileWords(n) || l.nsnps > len(xc) || l.npairs > len(bank) ||
		l.nsnps > 0 && (2*int(l.top)+2)*words > len(data) ||
		derive && (len(xmarg) < 1 || len(xmarg) > Lanes || int(l.tables) > len(yz)) {
		// Unreachable: the engine's lanes pass walks [0, words) in tiles
		// of its arena's x tile (arena.sizeLanes), lists the SNPs of two
		// blocks of at most Lanes and the pairs they form, which index
		// the arena's 2·Lanes XCounts, Lanes² bank tables and Lanes yz
		// tables, hands it nx x SNPs, which processBlockLanes clamps to
		// at most Lanes and returns before any work when below 1, and SNPs
		// of the dataset the split planes hold; its seeded pass lists one
		// pair of dataset SNPs and hands it a chunk of 1 to Lanes thirds
		// (seededWorker.tile's min with Lanes). The vector body reads all
		// of them through raw pointers.
		panic("contingency: lane block out of range")
	}
	if !k.vector() || n == 0 || l.nsnps == 0 {
		blockLanesGo(bank, xc, l, xt, data, words, w0, w1, xmarg, yz)
		return
	}
	blockLanesAVX512(bank, xc, xt, data[w0:], l.pairs[:l.npairs], l.snps[:l.nsnps], n, words, w0 > 0, derive, xmarg, yz)
}

// blockLanesGo is the pure-Go body of Block and its oracle.
func blockLanesGo(bank []LaneTable, xc []XCounts, l *LaneList, xt, data []uint64, words, w0, w1 int, xmarg [][2]int32, yz []LaneTable) {
	add := w0 > 0
	xt = xt[:LaneTileWords(w1-w0)]
	plane := func(s int32, g int) []uint64 {
		o := (2*int(s)+g)*words + w0
		return data[o : o+w1-w0]
	}
	for i, s := range l.snps[:l.nsnps] {
		xLanesGo(&xc[i], xt, plane(s, 0), plane(s, 1), add)
	}
	for j, p := range l.pairs[:l.npairs] {
		tripleLanesGo(&bank[j], xt, plane(p.y, 0), plane(p.y, 1), plane(p.z, 0), plane(p.z, 1), add)
		if w1 == words {
			deriveGo(&bank[j], &xc[p.ySlot], &xc[p.zSlot], xmarg, &yz[p.table], int(p.col))
		}
	}
}

// tripleLanesGo counts the eight cells of the triples (x[lane], y, z)
// over the words of the given planes into lt, as Block does a pair's.
func tripleLanesGo(lt *LaneTable, xt, y0s, y1s, z0s, z1s []uint64, add bool) {
	n := len(y0s)
	y1s, z0s, z1s = y1s[:n], z0s[:n], z1s[:n]
	var c [TripleCounted][Lanes]int32
	for w, y0 := range y0s {
		y1, z0, z1 := y1s[w], z0s[w], z1s[w]
		yz := [4]uint64{y0 & z0, y0 & z1, y1 & z0, y1 & z1}
		x := xt[2*w*Lanes : 2*(w+1)*Lanes]
		for lane := 0; lane < Lanes; lane++ {
			x0, x1 := x[lane], x[Lanes+lane]
			for i, v := range yz {
				c[i][lane] += int32(bits.OnesCount64(x0 & v))
				c[4+i][lane] += int32(bits.OnesCount64(x1 & v))
			}
		}
	}
	for i, row := range tripleRows {
		setLaneRow(&lt[row], &c[i], add)
	}
}

// xLanesGo counts the four cells of the pairs (x[lane], s) over the
// words of the given planes into xc, as Block does a SNP's.
func xLanesGo(xc *XCounts, xt, s0s, s1s []uint64, add bool) {
	s1s = s1s[:len(s0s)]
	var c XCounts
	for w, s0 := range s0s {
		s1 := s1s[w]
		x := xt[2*w*Lanes : 2*(w+1)*Lanes]
		for lane := 0; lane < Lanes; lane++ {
			x0, x1 := x[lane], x[Lanes+lane]
			c[0][lane] += int32(bits.OnesCount64(x0 & s0))
			c[1][lane] += int32(bits.OnesCount64(x0 & s1))
			c[2][lane] += int32(bits.OnesCount64(x1 & s0))
			c[3][lane] += int32(bits.OnesCount64(x1 & s1))
		}
	}
	for i := range c {
		setLaneRow(&xc[i], &c[i], add)
	}
}

// setLaneRow sets row to c, or with add adds c to it.
func setLaneRow(row, c *[Lanes]int32, add bool) {
	if add {
		for lane, v := range c {
			row[lane] += v
		}
		return
	}
	*row = *c
}

// deriveGo derives the 19 other rows of lt, as Block does a pair's on
// a class's last tile, (y, z) table column col of yz.
func deriveGo(lt *LaneTable, xy, xz *XCounts, xmarg [][2]int32, yz *LaneTable, col int) {
	for l := 0; l < Lanes; l++ {
		var xm [2]int32
		if l < len(xmarg) {
			xm = xmarg[l]
		}
		for a := 0; a < 2; a++ {
			t := lt[9*a : 9*a+9]
			for b := 0; b < 2; b++ {
				t[3*b+2][l] = xy[2*a+b][l] - t[3*b][l] - t[3*b+1][l]
			}
			for c := 0; c < 2; c++ {
				t[6+c][l] = xz[2*a+c][l] - t[c][l] - t[3+c][l]
			}
			t[8][l] = xm[a] - xy[2*a][l] - xy[2*a+1][l] - t[6][l] - t[7][l]
		}
		for bc := 0; bc < PairCells; bc++ {
			lt[18+bc][l] = yz[bc][col] - lt[bc][l] - lt[9+bc][l]
		}
	}
}
