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
	p := &Packed{M: mx.m, N: mx.n, Geno: make([]byte, (len(mx.geno)+3)/4), Phen: packPhenotypes(mx.phen)}
	// The section is the flat genotype array packed 4:1, so chunks of it
	// pack alone, and a chunk of packChunk entries fills whole bytes.
	eachRun(len(mx.geno), packChunk, func(lo, hi int) {
		dst, src := p.Geno[lo/4:(hi+3)/4], mx.geno[lo:hi]
		if !packSpan(dst, src) {
			packSWAR(dst, src) // the portable body clamps bad bytes to code 3
		}
	})
	return p
}

// HashMatrix returns Pack(mx).Hash() if mx.Validate() accepts mx, and
// Validate's error if not, without building the packed form: one
// validate-and-pack pass streams the sections into SHA-256 a packChunk of
// genotypes at a time through a buffer that stays in the L1 cache. It is
// how a cluster client names a Matrix it may not need to upload.
func HashMatrix(mx *Matrix) (string, error) {
	h := sha256.New()
	hdr := hashHeader(mx.m, mx.n)
	h.Write(hdr[:])
	var buf [packChunk / 4]byte
	for lo := 0; lo < len(mx.geno); lo += packChunk {
		src := mx.geno[lo:min(lo+packChunk, len(mx.geno))]
		dst := buf[:(len(src)+3)/4]
		if !packSpan(dst, src) {
			return "", mx.Validate() // names the first bad genotype
		}
		h.Write(dst)
	}
	if err := mx.checkPhenotypes(); err != nil {
		return "", err
	}
	h.Write(packPhenotypes(mx.phen))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// packChunk is how many genotypes Pack and HashMatrix pack at a time:
// 64 KiB of matrix, 16 KiB packed. It is a multiple of 64 (the AVX-512
// body's step), so every chunk but the last is whole steps.
const packChunk = 64 << 10

// packSpan is the validate-and-pack pass: it writes the genotypes src,
// which start on a byte of the section, into dst, (len(src)+3)/4 bytes,
// and reports whether every one is 0, 1 or 2. Where one is not, dst is
// unspecified. Whole 64-byte steps take the AVX-512 body where the host
// has it; the rest, and everything on other hosts, the SWAR body.
func packSpan(dst []byte, src []uint8) bool {
	body, clean := 0, true
	if hasAVX512 && len(src) >= 64 {
		body = len(src) &^ 63
		clean = packBlocksAVX512(&dst[0], &src[0], body/64)
	}
	return packSWAR(dst[body/4:], src[body:]) && clean
}

// packSWAR is packSpan's portable body: eight genotypes to two bytes of
// dst at a time, then the last few singly. Every byte of dst it covers is
// written, and a byte above 2 packs as code 3.
func packSWAR(dst []byte, src []uint8) bool {
	// A byte above 2 has a bit above its low two set, or both of those.
	const low = 0x0101010101010101
	var bad uint64
	for ; len(src) >= 8; src, dst = src[8:], dst[2:] {
		x := binary.LittleEndian.Uint64(src)
		bad |= x&^(3*low) | x&(x>>1)&low
		x = clampCodes(x)
		x |= x>>6 | x>>12 | x>>18 // each half's four codes meet in its low byte
		_ = dst[1]
		dst[0], dst[1] = byte(x), byte(x>>32)
	}
	for j := 0; j < len(src); j += 4 {
		var b byte
		for k, g := range src[j:min(j+4, len(src))] {
			if g > 2 {
				bad = 1
			}
			b |= min(g, 3) << (2 * k)
		}
		dst[j/4] = b
	}
	return bad == 0
}

// packPhenotypes returns the phenotype section of phen: bit j%8 of byte
// j/8 set iff sample j is a case.
func packPhenotypes(phen []uint8) []byte {
	bits := make([]byte, (len(phen)+7)/8)
	for j, ph := range phen {
		if ph == Case {
			bits[j/8] |= 1 << (j % 8)
		}
	}
	return bits
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
	hdr := hashHeader(p.M, p.N)
	h.Write(hdr[:])
	h.Write(p.Geno)
	h.Write(p.Phen)
	return hex.EncodeToString(h.Sum(nil))
}

// hashHeader is what the content hash digests ahead of the sections.
func hashHeader(m, n int) (hdr [16]byte) {
	copy(hdr[:8], "tpack\x00v1")
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(n))
	return hdr
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
			copyGenotypes(out.Geno, k*n, p.Geno, snps[k]*n, n, hasAVX512)
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

// unpackGenotypes fills row with the genotypes of packed from entry idx
// on.
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
// 32 entries at a time, shifted by 0, 2, 4 or 6 bits. Where vector is set
// and from starts a byte, whole runs of 256 entries go first, 8 words to
// a step of the AVX-512 body. It writes only the bytes of dst that hold
// entries to .. to+count-1, so copies to ranges that share no byte may run
// concurrently.
func copyGenotypes(dst []byte, to int, src []byte, from, count int, vector bool) {
	sh := uint(to%4) * 2
	d, end := to/4, (to+count+3)/4
	var carry uint64
	k := 0
	if steps := count / 256; vector && steps > 0 && from%4 == 0 && from/4+64*steps <= len(src) {
		s := src[from/4 : from/4+64*steps]
		orGenotypesAVX512(&dst[d:end][:64*steps][0], &s[0], steps, uint64(sh))
		carry = binary.LittleEndian.Uint64(s[len(s)-8:]) >> (64 - sh)
		k, d = 256*steps, d+64*steps
	}
	for ; k < count; k, d = k+32, d+8 {
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
