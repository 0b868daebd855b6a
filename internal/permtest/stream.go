package permtest

import (
	"math/bits"

	"trigene/internal/bitvec"
	"trigene/internal/contingency"
)

// Stream is the version of the permutation stream: which relabeling
// permutation p of a seed is. Hit counts from different streams are
// draws of different permutations and must never be summed into one
// p-value, so the version travels with every range of a distributed
// test. Version 1 was a math/rand Fisher–Yates shuffle of the labels.
const Stream = 2

// rng is a counter-based generator (wyrand: a Weyl sequence through a
// 64 x 64 -> 128-bit multiply folded in half): the state only ever steps
// by a constant, so a stream is fully named by where it starts, and a
// word costs one multiply.
type rng uint64

const (
	golden = 0x9e3779b97f4a7c15
	weyl   = 0xa0761d6478bd642f
)

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// newRNG keys a stream by (seed, p): the start is output p of the
// SplitMix64 sequence the seed names.
func newRNG(seed int64, p int) rng {
	return rng(mix64(mix64(uint64(seed)) + golden*uint64(p)))
}

func (r *rng) next() uint64 {
	*r += weyl
	hi, lo := bits.Mul64(uint64(*r), uint64(*r)^0xe7037ed1a0b428db)
	return hi ^ lo
}

// intn draws uniformly from [0, n) with no modulo bias (Lemire's
// multiply-and-reject).
func (r *rng) intn(n uint64) uint64 {
	hi, lo := bits.Mul64(r.next(), n)
	if lo < n {
		for reject := -n % n; lo < reject; {
			hi, lo = bits.Mul64(r.next(), n)
		}
	}
	return hi
}

// digit folds one random word v into x under one binary digit of q,
// given as a word m of 64 copies of it: x AND v under a 0, x OR v under
// a 1.
func digit(x, v, m uint64) uint64 { return (x | v&m) & (v | m) }

// casePlane writes permutation p of the seed as a case bit plane over n
// samples with exactly nCases bits set, tail-clean, uniform over all
// such planes — which is all a relabeling is to a permutation test. No
// label vector is shuffled or packed. Every sample first becomes a case
// independently with probability q = round(256·nCases/n)/256: a word of
// such bits comes from one random word per binary digit of q, least
// significant first, AND-ed in under a 0 digit and OR-ed in under a 1
// (that halves the probability, or halves it and adds a half). All
// eight digits are always taken, the zeros below the lowest 1 too, so a
// plane costs the same whatever the class ratio: how long a test takes
// depends on the size of the cohort and never on its phenotype. Then
// uniformly drawn positions are flipped, those already in the wanted
// state left alone, until the count is exact; about √n/2 + n/512 flips.
// Both steps treat every position alike, so all planes of the final
// weight are equally likely whatever q was; q only sets how many flips
// there are.
//
// Where contingency.HasAVX512, whole blocks of eight words are filled by
// an AVX-512 body (fill_amd64.s) that draws the very same words: the
// generator is counter-based, so the word for output word i and digit d
// is wyrand(start + (8i+d+1)·weyl) whichever order they are drawn in,
// eight words are eight independent lanes, and digit is the bitwise
// majority of x, v and m, one VPTERNLOGQ. The flips have a vector body
// as well, eight draws at a time from the same counter (flip). The
// planes are identical to the bit on every host, so the stream is still
// Stream 2.
func casePlane(dst []uint64, n, nCases int, seed int64, p int) {
	casePlaneWith(dst, n, nCases, seed, p, contingency.HasAVX512())
}

// casePlaneGo is casePlane through the Go fill and flips on every host:
// the scalar reference K draws with it, so what it checks the kernel
// against shares no code with the vector bodies.
func casePlaneGo(dst []uint64, n, nCases int, seed int64, p int) {
	casePlaneWith(dst, n, nCases, seed, p, false)
}

func casePlaneWith(dst []uint64, n, nCases int, seed int64, p int, vector bool) {
	if n == 0 {
		return
	}
	r := newRNG(seed, p)
	have := fillPlane(dst, n, nCases, &r, vector)
	flip(dst, n, have, nCases, &r, vector)
}

// fillPlane is casePlane's first step: every sample a case with
// probability q. It returns the weight of dst and leaves r where the
// flips start.
func fillPlane(dst []uint64, n, nCases int, r *rng, vector bool) int {
	q := uint((256*nCases + n/2) / n)
	var m [9]uint64 // m[8]: q = 256, every sample a case
	for d := range m {
		m[d] = -uint64(q >> d & 1)
	}
	return fill(dst, r, &m, bitvec.TailMask(n), vector)
}

// flip draws positions of [0, n) from r and flips those still in the
// state to leave — cases when have > nCases, controls else — until dst
// has nCases bits. Flips go one way, so a position flips at most once and
// the flipped positions are the first |have − nCases| distinct drawn
// positions in that state, taken in draw order. The Go body draws one
// position at a time, without a branch on the coin toss of whether it
// flips; the vector body (flipAVX512) draws eight at a time from the same
// counter and hands back to the Go loop for the one draw in 2^32 or so
// that intn's rejection test might refuse, then carries on from where
// intn left the counter, so both bodies flip the same positions.
func flip(dst []uint64, n, have, nCases int, r *rng, vector bool) {
	var leave uint64
	d := nCases - have
	if d < 0 {
		leave, d = 1, -d
	}
	vector = vector && uint64(n) < 1<<32
	for d > 0 {
		if vector {
			var at uint64
			if d, at = flipAVX512(&dst[0], n, uint64(*r), leave, d); d == 0 {
				return
			}
			*r = rng(at)
		}
		s := r.intn(uint64(n))
		w, b := s>>6, s&63
		ok := ^(dst[w]>>b ^ leave) & 1
		dst[w] ^= ok << b
		d -= int(ok)
	}
}

// fill writes every word of dst from r, eight digits a word under the
// masks m, ANDs the last word with tail, leaves r past the words it drew
// and returns the weight of dst. The vector body takes the whole blocks
// of eight words; the Go body the rest, from the counter where the
// vector body stopped.
func fill(dst []uint64, r *rng, m *[9]uint64, tail uint64, vector bool) (weight int) {
	if whole := len(dst) &^ 7; vector && whole > 0 {
		last := ^uint64(0)
		if whole == len(dst) {
			last = tail
		}
		weight = fillAVX512(&dst[0], whole/8, uint64(*r), m, last)
		*r += rng(8 * uint64(whole) * weyl)
		dst = dst[whole:]
	}
	return weight + fillGo(dst, r, m, tail)
}

// fillGo is the Go body of fill and its oracle.
func fillGo(dst []uint64, r *rng, m *[9]uint64, tail uint64) (weight int) {
	if len(dst) == 0 {
		return 0
	}
	for i := range dst {
		x := r.next() & m[0]
		x = digit(x, r.next(), m[1])
		x = digit(x, r.next(), m[2])
		x = digit(x, r.next(), m[3])
		x = digit(x, r.next(), m[4])
		x = digit(x, r.next(), m[5])
		x = digit(x, r.next(), m[6])
		x = digit(x, r.next(), m[7])
		x |= m[8]
		dst[i] = x
		weight += bits.OnesCount64(x)
	}
	last := &dst[len(dst)-1]
	weight -= bits.OnesCount64(*last &^ tail)
	*last &= tail
	return weight
}
