package permtest

import "math/bits"

// The two primitives of the by-sample count. A block of B permutations
// (a multiple of 64) is held as sample rows: row s is r = B/64 words,
// and bit i of word j is whether sample s is a case in permutation
// 64j+i of the block. transpose fills the rows from drawn case planes;
// cellCounts counts one genotype-combination cell of a candidate for
// every permutation of a chunk of words at once.

// ctrLevels is how deep cellCounts' counter goes in the vector body: a
// cell of up to 2^ctrLevels − 1 samples. Deeper ones take the Go body.
const ctrLevels = 20

// offsPad is how many entries past its end the vector counter may read of
// a cell's sample list, which must name a zero row: the counter takes
// sixteen vectors of up to eight rows at a time.
const offsPad = 128

// chunkWidths lists the widths a chunk of a row can have: a vector of
// the counter holds 8/w rows of a w-word chunk.
var chunkWidths = [...]int{8, 4, 2, 1}

// slabStride is the distance in words between the planes of a slab of
// 64 drawn planes of words words: one cache line more than a plane, so
// that the words or lines of the 64 planes a transpose reads together
// fall in different L1 sets and not, 2 KiB apart, in a few, and a line
// read past a plane's last word stays inside the slab.
func slabStride(words int) int { return words + 8 }

// transpose writes the case bits of 64 permutations, one plane of words
// words per permutation, slabStride(words) words apart in slab, into word
// j of the sample rows, r words each: bit i of word j of row s is bit s
// of plane i. Rows past the planes' last sample get the planes'
// (tail-clean) zero pad bits. The vector body reads the planes a cache
// line (eight words) at a time, eight tiles at once, so it reads the
// last plane up to words rounded up to 8, inside the slab's 64 strides.
func transpose(rows []uint64, r, j int, slab []uint64, words int, vector bool) {
	if words == 0 {
		return
	}
	stride := slabStride(words)
	rows = rows[j : (64*words-1)*r+j+1]
	if vector {
		slab = slab[:63*stride+(words+7)&^7]
		transposeAVX512(&rows[0], r*8, &slab[0], stride*8, words)
		return
	}
	transposeGo(rows, r, slab[:63*stride+words], stride, words)
}

// transposeGo is the pure-Go body of transpose and its oracle: one 64 x
// 64 bit tile per plane word.
func transposeGo(rows []uint64, r int, slab []uint64, stride, words int) {
	var t [64]uint64
	for w := 0; w < words; w++ {
		for p := range t {
			t[p] = slab[p*stride+w]
		}
		transpose64(&t)
		out := rows[64*w*r:]
		for i, v := range t {
			out[i*r] = v
		}
	}
}

// transpose64 transposes a 64 x 64 bit matrix in place, bit c of word k
// being entry (k, c): six rounds, each swapping the off-diagonal s x s
// blocks of every 2s x 2s block.
func transpose64(t *[64]uint64) {
	for s, m := 32, uint64(0x00000000FFFFFFFF); s > 0; s, m = s>>1, m^m<<(s>>1) {
		for k := 0; k < 64; k = (k + s + 1) &^ s {
			x := (t[k]>>s ^ t[k+s]) & m
			t[k+s] ^= x
			t[k] ^= x << s
		}
	}
}

// cellCounts counts one cell for the 64·w permutations of a w-word chunk
// (w one of chunkWidths): rows is the block's rows, r words each, from
// the chunk's first word on, and samples lists the cell's samples. For
// permutation b of the chunk it writes the number of those samples that
// are cases to lane b%8 of row (b/8)·gs of cases and the rest to ctrl at
// the same place — one lane table per group of eight permutations when
// gs is a table's rows. The vector body reads samples up to offsPad
// entries past its end (naming a zero row, which counts nothing) and
// ctrLevels·8 words of ctr scratch.
func cellCounts(cases, ctrl [][8]int32, gs int, rows []uint64, samples []int32, r, w int, ctr []uint64, vector bool) {
	n := len(samples)
	levels := bits.Len(uint(n))
	end := (8*w-1)*gs + 1
	cases, ctrl = cases[:end], ctrl[:end]
	if vector && levels <= ctrLevels {
		ctr = ctr[:ctrLevels*8]
		if n > 0 {
			per := 16 * 8 / w // samples one round of the counter takes
			samples = samples[:(n+per-1)/per*per]
			countAVX512(&ctr[0], &rows[0], &samples[0], r, len(samples)/per, w, levels)
		}
		extractAVX512(&cases[0][0], &ctrl[0][0], gs*32, &ctr[0], levels, w, n)
		return
	}
	cellCountsGo(cases, ctrl, gs, rows, samples, r, w, ctr)
}

// cellCountsGo is the pure-Go body of cellCounts and its oracle: a
// bit-sliced counter per word of the chunk, each row added with a ripple
// carry, then read out bit by bit.
func cellCountsGo(cases, ctrl [][8]int32, gs int, rows []uint64, samples []int32, r, w int, ctr []uint64) {
	total := int32(len(samples))
	levels := bits.Len(uint(len(samples)))
	if len(ctr) < levels*w {
		ctr = make([]uint64, levels*w)
	}
	ctr = ctr[:levels*w]
	clear(ctr)
	for _, s := range samples {
		o := int(s) * r
		for k, x := range rows[o : o+w] {
			for l := k; x != 0; l += w {
				c := ctr[l]
				ctr[l] = c ^ x
				x &= c
			}
		}
	}
	for b := 0; b < 64*w; b++ {
		var n int32
		for l := 0; l < levels; l++ {
			n |= int32(ctr[l*w+b>>6]>>(b&63)&1) << l
		}
		i := b >> 3 * gs
		cases[i][b&7], ctrl[i][b&7] = n, total-n
	}
}
