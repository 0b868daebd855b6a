package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"trigene/internal/bitvec"
)

// Packed is a dataset in its canonical packed form: the two sections a
// .tpack stores and the content hash digests. The .raw reader assembles
// it straight from its chunks and the store adopts it as it is, so a
// dataset that arrives as text or as a pack never needs the M x N byte
// Matrix — four times the size — to be searched.
type Packed struct {
	M, N int
	// Geno holds the genotypes two bits each, SNP-major: the genotype of
	// SNP i for sample j is entry i*N+j, four entries to the byte with the
	// first in the low bits; (M*N+3)/4 bytes, zero past the last entry.
	// Code 3 is no genotype and sets no plane bit.
	Geno []byte
	// Phen holds one bit per sample, bit j%8 of byte j/8 set iff sample j
	// is a case; (N+7)/8 bytes, zero past the last sample.
	Phen []byte
}

// Pack returns mx in its packed form. A byte above 2, which only Row can
// store, packs as code 3.
func Pack(mx *Matrix) *Packed {
	m, n := mx.m, mx.n
	p := &Packed{M: m, N: n, Geno: make([]byte, (m*n+3)/4), Phen: make([]byte, (n+7)/8)}
	// A run of SNPs starts on a byte (eight rows are whole bytes), so runs
	// write disjoint bytes.
	eachSNPRun(m, func(lo, hi int) {
		packGenotypes(p.Geno, lo*n, mx.geno[lo*n:hi*n])
	})
	for j, ph := range mx.phen {
		if ph == Case {
			p.Phen[j/8] |= 1 << (j % 8)
		}
	}
	return p
}

// Matrix decodes p into a Matrix.
func (p *Packed) Matrix() *Matrix {
	mx := NewMatrix(p.M, p.N)
	eachSNPRun(p.M, func(lo, hi int) {
		unpackGenotypes(mx.geno[lo*p.N:hi*p.N], p.Geno, lo*p.N)
	})
	for j := range mx.phen {
		mx.phen[j] = p.Phen[j/8] >> (j % 8) & 1
	}
	return mx
}

// Hash returns the hex SHA-256 content hash of the sections: the
// dataset's identity, whatever format it was read from.
func (p *Packed) Hash() string {
	h := sha256.New()
	var hdr [16]byte
	copy(hdr[:8], "tpack\x00v1")
	binary.LittleEndian.PutUint32(hdr[8:], uint32(p.M))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(p.N))
	h.Write(hdr[:])
	h.Write(p.Geno)
	h.Write(p.Phen)
	return hex.EncodeToString(h.Sum(nil))
}

// PhenVector returns the phenotype as a bit vector: bit j is set iff
// sample j is a case.
func (p *Packed) PhenVector() *bitvec.Vector {
	words := make([]uint64, bitvec.WordsFor(p.N))
	for j, b := range p.Phen {
		words[j/8] |= uint64(b) << (j % 8 * 8)
	}
	return bitvec.FromWords(p.N, words)
}

// Select returns the packed sections of the given SNPs, in that order;
// each must be in [0, M).
func (p *Packed) Select(snps []int) *Packed {
	n := p.N
	out := &Packed{M: len(snps), N: n, Geno: make([]byte, (len(snps)*n+3)/4), Phen: slices.Clone(p.Phen)}
	eachSNPRun(len(snps), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			copyGenotypes(out.Geno, k*n, p.Geno, snps[k]*n, n)
		}
	})
	return out
}

// Binarize returns the three-plane form.
func (p *Packed) Binarize() *Binarized {
	w := bitvec.WordsFor(p.N)
	b := &Binarized{M: p.M, N: p.N, Words: w, planes: make([]uint64, p.M*3*w), Phen: p.PhenVector()}
	eachSNPRun(p.M, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.binarizeRow(b.planes[i*3*w:(i+1)*3*w], i)
		}
	})
	return b
}

// SNPPlanes returns the three planes of the given SNPs only — any order,
// repeats allowed, SNPs p does not have left out — word for word the
// planes Binarize gives them.
func (p *Packed) SNPPlanes(snps []int) *SNPPlanes {
	w := bitvec.WordsFor(p.N)
	sp := &SNPPlanes{M: p.M, N: p.N, Words: w, Phen: p.PhenVector(), snps: distinctSNPs(p.M, snps)}
	sp.planes = make([][]uint64, len(sp.snps))
	slab := make([]uint64, len(sp.snps)*3*w)
	eachSNPRun(len(sp.snps), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			sp.planes[k] = slab[k*3*w : (k+1)*3*w]
			p.binarizeRow(sp.planes[k], sp.snps[k])
		}
	})
	return sp
}

// Split returns the phenotype-split two-plane form. Sample order within
// each class follows the original sample order.
func (p *Packed) Split() *Split {
	l := newClassLayout(p)
	s := &Split{M: p.M, N: l.n}
	for c := range s.planes {
		s.Words[c] = l.words(c)
		s.Pad[c] = s.Words[c]*bitvec.WordBits - s.N[c]
		s.planes[c] = make([]uint64, p.M*2*s.Words[c])
	}
	l.splitRuns(s.planes, p, 2) // genotype 2 is implicit
	return s
}

// ClassPlanes returns the per-class three-plane form.
func (p *Packed) ClassPlanes() *ClassPlanes {
	l := newClassLayout(p)
	cp := &ClassPlanes{M: p.M}
	for c := range cp.planes {
		cp.words[c] = l.words(c)
		cp.planes[c] = make([]uint64, p.M*3*cp.words[c])
	}
	// The split encode with the genotype-2 plane stored, not inferred.
	l.splitRuns(cp.planes, p, 3)
	return cp
}

// binarizeRow writes the three planes of SNP i, WordsFor(N) words each,
// genotype-major, into planes: 16 bytes of the section to a word of each
// plane, shifted by the 0, 2, 4 or 6 bits the row starts at inside its
// first byte.
func (p *Packed) binarizeRow(planes []uint64, i int) {
	words := bitvec.WordsFor(p.N)
	g0, g1, g2 := planes[:words], planes[words:2*words], planes[2*words:3*words]
	at := i * p.N
	src, sh := p.Geno[at/4:], uint(at%4)*2
	for k := 0; k < words; k++ {
		b := src[16*k:]
		if len(b) < 17 { // the section's last bytes
			var pad [17]byte
			copy(pad[:], b)
			b = pad[:]
		}
		x0, x1 := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
		if sh != 0 {
			x0 = x0>>(sh&63) | x1<<((64-sh)&63)
			x1 = x1>>(sh&63) | uint64(b[16])<<((64-sh)&63)
		}
		g0[k], g1[k], g2[k] = genotypeWords(x0, x1)
	}
	// Entries past the row's end belong to the next SNP, or to none.
	tail := bitvec.TailMask(p.N)
	g0[words-1] &= tail
	g1[words-1] &= tail
	g2[words-1] &= tail
}

// clampCodes maps every byte of x above 3 to 3, so that eight matrix
// bytes pack as eight codes.
func clampCodes(x uint64) uint64 {
	const (
		low  = 0x0101010101010101
		low7 = 0x7F7F7F7F7F7F7F7F
	)
	hi := x &^ (3 * low)
	if hi == 0 {
		return x
	}
	return x&(3*low) | ((hi&low7+low7)|hi)>>7&low*3
}

// packGenotypes writes row into the 2-bit section packed (zeroed) from
// entry idx on: two bytes at a time where eight of the row's genotypes
// fill them, singly where the row starts or ends inside a byte it shares
// with its neighbour.
func packGenotypes(packed []byte, idx int, row []uint8) {
	head := min(len(row), -idx&3) // up to the next byte boundary
	body := (len(row) - head) &^ 7
	singly := func(idx int, row []uint8) {
		for j, g := range row {
			packed[(idx+j)/4] |= min(g, 3) << (uint(idx+j) % 4 * 2)
		}
	}
	singly(idx, row[:head])
	dst := packed[(idx+head)/4:]
	for j := head; j < head+body; j, dst = j+8, dst[2:] {
		x := clampCodes(binary.LittleEndian.Uint64(row[j:]))
		x |= x>>6 | x>>12 | x>>18 // each half's four codes meet in its low byte
		dst[0], dst[1] = byte(x), byte(x>>32)
	}
	singly(idx+head+body, row[head+body:])
}

// unpackGenotypes is packGenotypes' inverse: it fills row from entry idx
// of packed on.
func unpackGenotypes(row []uint8, packed []byte, idx int) {
	head := min(len(row), -idx&3)
	body := (len(row) - head) &^ 7
	singly := func(idx int, row []uint8) {
		for j := range row {
			row[j] = packed[(idx+j)/4] >> (uint(idx+j) % 4 * 2) & 3
		}
	}
	singly(idx, row[:head])
	src := packed[(idx+head)/4:]
	for j := head; j < head+body; j, src = j+8, src[2:] {
		x := uint64(src[0]) | uint64(src[1])<<32
		x = (x | x<<12) & 0x000f000f000f000f
		binary.LittleEndian.PutUint64(row[j:], (x|x<<6)&0x0303030303030303)
	}
	singly(idx+head+body, row[head+body:])
}

// loadGenotypes returns the n <= 32 entries of the section src from
// entry from on as one word, the first in the low bits; entries past n
// and past the section's end read as zero.
func loadGenotypes(src []byte, from, n int) uint64 {
	b, sh := from/4, uint(from%4)*2
	var x uint64
	if b+9 <= len(src) {
		x = binary.LittleEndian.Uint64(src[b:])>>sh | uint64(src[b+8])<<(64-sh)
	} else {
		var buf [9]byte
		copy(buf[:], src[min(b, len(src)):])
		x = binary.LittleEndian.Uint64(buf[:])>>sh | uint64(buf[8])<<(64-sh)
	}
	if n < 32 {
		x &= 1<<(2*n) - 1
	}
	return x
}

// copyGenotypes ORs count entries of the section src, from entry from on,
// into the section dst from entry to on, where dst holds zeros: a word of
// 32 entries at a time, shifted by 0, 2, 4 or 6 bits. It writes only the
// bytes of dst that hold entries to .. to+count-1, so copies to ranges
// that share no byte may run concurrently.
func copyGenotypes(dst []byte, to int, src []byte, from, count int) {
	sh := uint(to%4) * 2
	d, end := to/4, (to+count+3)/4
	var carry uint64
	for k := 0; k < count; k, d = k+32, d+8 {
		x := loadGenotypes(src, from+k, min(32, count-k))
		orBytes(dst[d:end], x<<sh|carry)
		carry = x >> (64 - sh)
	}
	if d < end {
		orBytes(dst[d:end], carry)
	}
}

// orBytes ORs the little-endian bytes of x into b, as many as b holds up
// to eight.
func orBytes(b []byte, x uint64) {
	if len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)|x)
		return
	}
	for i := range b {
		b[i] |= byte(x >> (8 * i))
	}
}
