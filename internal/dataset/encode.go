package dataset

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"trigene/internal/bitvec"
)

// The encoders — Binarize, BinarizeSNPs, SplitBinarize, BuildClassPlanes —
// are one body and one loop. The body is genotypeWords: 64 genotype bytes
// to the words of the three genotype planes. The phenotype-split forms then
// compress each word by the word's control mask and by its case mask
// (classLayout: the phenotype is the same for every SNP, so masks, move
// masks and every word's bit offset in its class are made once per
// dataset) and OR what is left into the class plane: no genotype is moved
// as a byte. The loop is eachSNPRun: a SNP's planes are slices no other SNP
// touches, so SNPs are shared out over goroutines and the output is the
// same whatever their number.

// noGenotype continues a row that ends inside a 64-sample word: it equals
// no genotype, so it sets no plane bit.
const noGenotype = 0xFF

// genotypeWords packs up to 64 genotype bytes into the words of the three
// genotype planes: bit k of word g is set iff src[k] == g, so a byte above
// 2 sets no bit and the three words never overlap. The 64 bytes are eight
// little-endian words x0..x7; a genotype is its byte's two low bits, so
// four words fit one (x0, x2, x4, x6 two bits apart, and the odd
// ones likewise), the plane a genotype is in follows from its two bits for
// 32 samples at a time, and with the odd half one bit up from the even one
// byte i of a plane holds samples i, 8+i, ... 56+i in bits 0..7: the
// transpose of the word wanted.
func genotypeWords(src []uint8) (g0, g1, g2 uint64) {
	const (
		low  = 0x0101010101010101
		low7 = 0x7F7F7F7F7F7F7F7F
		even = 0x5555555555555555
	)
	if len(src) < bitvec.WordBits {
		var tail [bitvec.WordBits]uint8
		for i := copy(tail[:], src); i < len(tail); i++ {
			tail[i] = noGenotype
		}
		src = tail[:]
	}
	src = src[:bitvec.WordBits]
	x0, x1 := binary.LittleEndian.Uint64(src[0:]), binary.LittleEndian.Uint64(src[8:])
	x2, x3 := binary.LittleEndian.Uint64(src[16:]), binary.LittleEndian.Uint64(src[24:])
	x4, x5 := binary.LittleEndian.Uint64(src[32:]), binary.LittleEndian.Uint64(src[40:])
	x6, x7 := binary.LittleEndian.Uint64(src[48:]), binary.LittleEndian.Uint64(src[56:])
	if (x0|x1|x2|x3|x4|x5|x6|x7)&^(3*low) != 0 {
		// Not a genotype file's bytes: every byte with a bit above the low
		// two becomes 3, which is in no plane either.
		clamp := func(x uint64) uint64 {
			hi := x &^ (3 * low)
			return x&(3*low) | ((hi&low7+low7)|hi)>>7&low*3
		}
		x0, x1, x2, x3 = clamp(x0), clamp(x1), clamp(x2), clamp(x3)
		x4, x5, x6, x7 = clamp(x4), clamp(x5), clamp(x6), clamp(x7)
	}
	p0 := x0 | x2<<2 | x4<<4 | x6<<6
	p1 := x1 | x3<<2 | x5<<4 | x7<<6
	b0, b1 := p0&even, p0>>1&even // the low and the high bit of each genotype
	c0, c1 := p1&even, p1>>1&even
	return transpose8(even&^(b0|b1) | even&^(c0|c1)<<1),
		transpose8(b0&^b1 | (c0&^c1)<<1),
		transpose8(b1&^b0 | (c1&^c0)<<1)
}

// transpose8 transposes a word as an 8 x 8 bit matrix: bit c of byte r
// becomes bit r of byte c (Hacker's Delight 7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// snpRun is how many consecutive SNPs a goroutine claims at a time: enough
// that the claim is nothing, few enough that the last runs even out.
const snpRun = 8

// eachSNPRun cuts the SNPs [0, m) into runs of snpRun and calls
// encode(lo, hi) once for each, on up to GOMAXPROCS goroutines that claim
// the runs in order; it returns when all are done. encode must write only
// what belongs to its SNPs.
func eachSNPRun(m int, encode func(lo, hi int)) {
	var (
		next atomic.Int64 // first unclaimed SNP
		wg   sync.WaitGroup
	)
	claim := func() {
		for {
			lo := int(next.Add(snpRun)) - snpRun
			if lo >= m {
				return
			}
			encode(lo, min(lo+snpRun, m))
		}
	}
	// The caller is one of the goroutines, so few SNPs start none.
	for w := min(runtime.GOMAXPROCS(0), (m+snpRun-1)/snpRun); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// binarizeRow writes the three planes of one genotype row, words each,
// genotype-major, into planes.
func binarizeRow(planes []uint64, row []uint8, words int) {
	for k := 0; k < words; k++ {
		planes[k], planes[words+k], planes[2*words+k] = genotypeWords(row[k*bitvec.WordBits:])
	}
}

// wordMove is what the phenotype says about one 64-sample word of the
// matrix and one class: which of its samples are in the class, how
// compress moves them together, and where they go in the class's planes.
type wordMove struct {
	mask  uint64
	move  [6]uint64 // compress's move masks for mask
	off   int       // samples of the class before this word
	spill bool      // the word's samples run over into the next plane word
}

// classLayout is the phenotype as the split encoders read it: per class,
// the class size and one wordMove per 64-sample word of the matrix.
type classLayout struct {
	n     [2]int
	moves [2][]wordMove
}

func newClassLayout(phen []uint8) *classLayout {
	words := bitvec.WordsFor(len(phen))
	l := &classLayout{}
	for c := range l.moves {
		l.moves[c] = make([]wordMove, words)
	}
	for k := 0; k < words; k++ {
		var mask [2]uint64
		for j, p := range phen[k*bitvec.WordBits : min((k+1)*bitvec.WordBits, len(phen))] {
			class := Control
			if p == Case {
				class = Case
			}
			mask[class] |= 1 << j
		}
		for c, m := range mask {
			mv := &l.moves[c][k]
			mv.mask, mv.off = m, l.n[c]
			count := bits.OnesCount64(m)
			mv.spill = mv.off%bitvec.WordBits+count > bitvec.WordBits
			l.n[c] += count
			// Hacker's Delight 7-4: mk marks the bits with an odd number
			// of zeros of the mask below them in its round, i.e. the ones
			// that move right by 1, 2, 4, ... 32.
			mk := ^m << 1
			for i := range mv.move {
				mp := mk ^ mk<<1
				mp ^= mp << 2
				mp ^= mp << 4
				mp ^= mp << 8
				mp ^= mp << 16
				mp ^= mp << 32
				mv.move[i] = mp & m
				m = m ^ mv.move[i] | mv.move[i]>>(1<<i)
				mk &^= mp
			}
		}
	}
	return l
}

// words returns the 64-bit words of one plane of the class.
func (l *classLayout) words(class int) int { return bitvec.WordsFor(l.n[class]) }

// compress ORs into dst — a plane of the class, zero so far — the bits of
// src, a plane over all samples, that belong to the class's samples, moved
// together, order kept.
func compress(dst, src []uint64, moves []wordMove) {
	for k := range moves {
		mv := &moves[k]
		if mv.mask == 0 {
			continue // and dst may end here
		}
		g := src[k] & mv.mask
		t := g & mv.move[0]
		g = g ^ t | t>>1
		t = g & mv.move[1]
		g = g ^ t | t>>2
		t = g & mv.move[2]
		g = g ^ t | t>>4
		t = g & mv.move[3]
		g = g ^ t | t>>8
		t = g & mv.move[4]
		g = g ^ t | t>>16
		t = g & mv.move[5]
		g = g ^ t | t>>32
		at, sh := mv.off/bitvec.WordBits, uint(mv.off)%bitvec.WordBits
		dst[at] |= g << sh
		if mv.spill {
			dst[at+1] |= g >> (bitvec.WordBits - sh)
		}
	}
}

// splitRuns is the loop of the phenotype-split encoders: the stored
// genotype planes (2: genotype 2 implicit, or 3) of every SNP, class by
// class, into planes[c], which hold l.words(c) words per plane, SNP-major
// then genotype-major, and are zero. Each SNP's row is binarized as it is
// and its planes compressed class by class.
func (l *classLayout) splitRuns(planes [2][]uint64, mx *Matrix, stored int) {
	words := bitvec.WordsFor(mx.Samples())
	eachSNPRun(mx.SNPs(), func(lo, hi int) {
		whole := make([]uint64, 3*words)
		for i := lo; i < hi; i++ {
			binarizeRow(whole, mx.Row(i), words)
			for c, class := range planes {
				w := l.words(c)
				for g := 0; g < stored; g++ {
					compress(class[(i*stored+g)*w:][:w], whole[g*words:][:words], l.moves[c])
				}
			}
		}
	})
}
