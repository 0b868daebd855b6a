package contingency

import "math/bits"

// Lanes is how many x SNPs one PairBlock.AccumulateLanes pass counts:
// one per 64-bit lane of a 512-bit vector.
const Lanes = 8

// LaneTable holds one class's counts of the Lanes triples (x[lane], y, z)
// of a lanes pass: row cell, column lane — each row one vector of the
// pass, so nothing is reduced across lanes on the way out.
type LaneTable [Cells][Lanes]int32

// LaneTileWords is the size of the x tile of a lanes pass over a word
// range of the given length.
func LaneTileWords(words int) int { return 2 * Lanes * words }

// TransposeLanes lays words [w0, w1) of the stored planes of up to Lanes
// consecutive SNPs out as the x tile of a lanes pass over that range:
// dst[(w*2+g)*Lanes+lane] is word w0+w of genotype plane g of SNP lane.
// src holds the SNPs' whole planes end to end, (snp*2+g)*words, the way
// dataset.Split stores a class. Lanes past the SNPs given are zeroed: a
// SNP no sample carries genotype 0 or 1 of, whose counts are well-formed
// and which the caller ignores.
func TransposeLanes(dst, src []uint64, words, w0, w1 int) {
	if words == 0 {
		return
	}
	n := len(src) / (2 * words)
	tile := w1 - w0
	dst = dst[:LaneTileWords(tile)]
	for lane := 0; lane < n; lane++ {
		p0 := src[lane*2*words+w0 : lane*2*words+w1]
		p1 := src[(lane*2+1)*words+w0 : (lane*2+1)*words+w1]
		for w := range p0 {
			dst[2*w*Lanes+lane] = p0[w]
			dst[(2*w+1)*Lanes+lane] = p1[w]
		}
	}
	for lane := n; lane < Lanes; lane++ {
		for o := lane; o < len(dst); o += Lanes {
			dst[o] = 0
		}
	}
}

// AccumulateLanes counts Lanes x SNPs at once against the block: xt is
// their x tile (TransposeLanes) over the word range the block was built
// for. Per word each of the nine pair-plane words meets all eight x0 and
// x1 words, so the 18 counted rows cost what one Accumulate does per
// vector of words but carry eight SNPs, and the nine genotype-2 rows
// follow from the cached sums as in Accumulate. With add false the pass
// sets all 27 rows of lt, with add true it adds to them: a plane cut
// into word tiles is one pass per tile into one table, the first setting
// and the rest adding, and the genotype-2 rows come out right because
// each tile brings its own sums. Padding lands in row 26 as in
// Accumulate.
func (b *PairBlock) AccumulateLanes(lt *LaneTable, xt []uint64, add bool) {
	n := len(b.planes) / PairPlanes
	xt = xt[:LaneTileWords(n)]
	if b.vector() && n > 0 {
		accumulateLanesAVX512(lt, &xt[0], &b.planes[0], &b.sums, n, add)
		return
	}
	if !add {
		*lt = LaneTable{}
	}
	accumulateLanesGo(lt, xt, b.planes, &b.sums)
}

// accumulateLanesGo is the pure-Go body of AccumulateLanes (the adding
// form) and its oracle: accumulateFusedGo's loop, one lane of the tile at
// a time.
func accumulateLanesGo(lt *LaneTable, xt, planes []uint64, sums *[PairPlanes]int32) {
	n := len(planes) / PairPlanes
	for lane := 0; lane < Lanes; lane++ {
		var c [TripleCounted]int32
		for w := 0; w < n; w++ {
			x0, x1 := xt[2*w*Lanes+lane], xt[(2*w+1)*Lanes+lane]
			o := w
			for p := 0; p < PairPlanes; p++ {
				v := planes[o]
				c[p] += int32(bits.OnesCount64(x0 & v))
				c[p+PairPlanes] += int32(bits.OnesCount64(x1 & v))
				o += n
			}
		}
		for p := 0; p < PairPlanes; p++ {
			lt[p][lane] += c[p]
			lt[p+PairPlanes][lane] += c[p+PairPlanes]
			lt[p+2*PairPlanes][lane] += sums[p] - c[p] - c[p+PairPlanes]
		}
	}
}
