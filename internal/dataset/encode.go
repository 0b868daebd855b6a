package dataset

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"trigene/internal/bitvec"
	"trigene/internal/join"
)

// The encoders — Binarize, SNPPlanes, Split and ClassPlanes of a Packed,
// and the Matrix forms, which pack first — are one body and one loop. The
// body is genotypeWords: 16 bytes of a packed section to the words of the
// three genotype planes. The phenotype-split forms then compress each word
// by the word's control mask and by its case mask (classLayout: the
// phenotype is the same for every SNP, so masks, move masks and every
// word's bit offset in its class are made once per dataset) and OR what is
// left into the class plane: no genotype is moved as a byte. The loop is
// eachSNPRun: a SNP's planes are slices no other SNP touches, so SNPs are
// shared out over goroutines and the output is the same whatever their
// number.

// genotypeWords turns 64 entries of a packed section — two words of 32
// two-bit codes, the first in the low bits — into the words of the three
// genotype planes: bit k of word g is set iff entry k is g, so code 3 sets
// no bit and the three words never overlap. Both words are unzipped side
// by side (Hacker's Delight 7-2, the outer unshuffle: even bits to the low
// half, odd bits to the high half, each in order), which gathers each
// entry's low code bit apart from its high one; the planes follow from the
// two 64 samples at a time.
func genotypeWords(x0, x1 uint64) (g0, g1, g2 uint64) {
	t0, t1 := (x0^x0>>1)&0x2222222222222222, (x1^x1>>1)&0x2222222222222222
	x0, x1 = x0^t0^t0<<1, x1^t1^t1<<1
	t0, t1 = (x0^x0>>2)&0x0C0C0C0C0C0C0C0C, (x1^x1>>2)&0x0C0C0C0C0C0C0C0C
	x0, x1 = x0^t0^t0<<2, x1^t1^t1<<2
	t0, t1 = (x0^x0>>4)&0x00F000F000F000F0, (x1^x1>>4)&0x00F000F000F000F0
	x0, x1 = x0^t0^t0<<4, x1^t1^t1<<4
	t0, t1 = (x0^x0>>8)&0x0000FF000000FF00, (x1^x1>>8)&0x0000FF000000FF00
	x0, x1 = x0^t0^t0<<8, x1^t1^t1<<8
	t0, t1 = (x0^x0>>16)&0x00000000FFFF0000, (x1^x1>>16)&0x00000000FFFF0000
	x0, x1 = x0^t0^t0<<16, x1^t1^t1<<16
	lo := x0&0xFFFFFFFF | x1<<32 // the low bit of each entry
	hi := x0>>32 | x1&^0xFFFFFFFF
	return ^(lo | hi), lo &^ hi, hi &^ lo
}

// snpRun is how many consecutive SNPs a goroutine claims at a time: enough
// that the claim is nothing, few enough that the last runs even out. It is
// a multiple of four, so every run's rows of a packed section start on a
// byte and runs that write a section write disjoint bytes.
const snpRun = 8

// eachSNPRun cuts the SNPs [0, m) into runs of snpRun and calls
// encode(lo, hi) once for each, as eachRun does.
func eachSNPRun(m int, encode func(lo, hi int)) { eachRun(m, snpRun, encode) }

// eachRun cuts [0, n) into runs of run and calls fn(lo, hi) once for each,
// on up to GOMAXPROCS goroutines that claim the runs in order; it returns
// when all are done, raising on the caller any run's panic. fn must write
// only what belongs to its range.
func eachRun(n, run int, fn func(lo, hi int)) {
	var (
		next atomic.Int64 // first unclaimed item
		g    join.Group
	)
	claim := func() {
		for {
			lo := int(next.Add(int64(run))) - run
			if lo >= n {
				return
			}
			fn(lo, min(lo+run, n))
		}
	}
	// The caller is one of the goroutines, so a single run starts none.
	for w := min(runtime.GOMAXPROCS(0), (n+run-1)/run); w > 1; w-- {
		g.Go(claim)
	}
	g.Do(claim)
	g.Wait()
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
// the class size and one wordMove per 64-sample word of the dataset.
type classLayout struct {
	n     [2]int
	moves [2][]wordMove
}

func newClassLayout(p *Packed) *classLayout {
	cases := p.PhenVector().Words()
	l := &classLayout{}
	for c := range l.moves {
		l.moves[c] = make([]wordMove, len(cases))
	}
	for k, w := range cases {
		valid := ^uint64(0)
		if k == len(cases)-1 {
			valid = bitvec.TailMask(p.N)
		}
		mask := [2]uint64{Control: valid &^ w, Case: w}
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
func (l *classLayout) splitRuns(planes [2][]uint64, p *Packed, stored int) {
	words := bitvec.WordsFor(p.N)
	eachSNPRun(p.M, func(lo, hi int) {
		whole := make([]uint64, 3*words)
		for i := lo; i < hi; i++ {
			p.binarizeRow(whole, i)
			for c, class := range planes {
				w := l.words(c)
				for g := 0; g < stored; g++ {
					compress(class[(i*stored+g)*w:][:w], whole[g*words:][:words], l.moves[c])
				}
			}
		}
	})
}
