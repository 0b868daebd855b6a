// Package store is the unified encoded-dataset store: one immutable,
// content-addressed handle per dataset that lazily builds and memoizes
// every bit-plane representation the execution layers consume — the
// naive three-plane Binarized form (approach V1), the phenotype-split
// form (V2 and later), the 32-bit GPU word layouts (one per
// layout/tile-width pair), the per-class three-plane baseline form —
// exactly once, no matter how many searches, backends or devices share
// the Store.
//
// A Store also has a versioned packed on-disk format (.tpack): a
// magic/version header, the SHA-256 content hash of the source matrix,
// and the little-endian word planes of the two hot encodings. Open
// maps a .tpack with mmap where the platform allows it (a portable
// read-into-heap fallback covers the rest), so a worker or CLI starts
// searching in milliseconds instead of re-parsing and re-binarizing
// the dataset. The content hash is the Store's identity: caches (the
// cluster worker's Session cache, on-disk pack caches) key on it, and
// a pack round-trip preserves it bit for bit.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"trigene/internal/bitvec"
	"trigene/internal/dataset"
)

// Builds counts how many times each representation was constructed
// from scratch over a Store's lifetime. Representations adopted from a
// loaded pack are not builds. Tests assert the build-once guarantee on
// these counters.
type Builds struct {
	Binarized   int
	Split       int
	Naive32     int
	Words32     int // total across (layout, BS) keys
	ClassPlanes int
	Matrix      int // lazy matrix decodes on pack-loaded stores
}

// words32Key identifies one GPU word-layout encoding.
type words32Key struct {
	layout dataset.Layout
	bs     int
}

// Store memoizes every encoding of one dataset. It is safe for
// concurrent use; each representation is built at most once (builds
// run under the Store's lock, so concurrent requesters wait for the
// first build instead of duplicating it).
type Store struct {
	m, n            int
	controls, cases int

	mu sync.Mutex

	// mx is the raw matrix; nil on pack-loaded stores until something
	// (a cluster submission, a scalar permutation test) actually needs the
	// genotypes.
	mx *dataset.Matrix

	// hash is the hex SHA-256 content hash; computed lazily on
	// matrix-built stores, verified and adopted on pack loads.
	hash string

	// packedGeno/packedPhen are the canonical packed sections (2-bit
	// genotypes, 1-bit phenotypes), lazily built from mx or aliased
	// into a loaded pack.
	packedGeno []byte
	packedPhen []byte

	bin         *dataset.Binarized
	split       *dataset.Split
	naive32     *dataset.Naive32
	classPlanes *dataset.ClassPlanes
	words32     map[words32Key]*dataset.Words32

	builds Builds
	om     storeMetrics // exported mirror of builds; see Instrument

	// encodeSeconds accumulates the wall time of from-scratch encoding
	// builds (outermost build only: a build that triggers a nested one,
	// like Binarize decoding the matrix first, counts once). Sessions
	// read the delta across a search as the "encode" trace span.
	encodeSeconds float64
	buildDepth    int

	// mapped is the mmap region backing a pack-loaded store (nil when
	// heap-backed); Close releases it.
	mapped []byte

	// fromPack marks stores adopted from a .tpack (heap or mmap), for
	// the pack-load metrics.
	fromPack bool
}

// New validates the matrix and returns a Store over it. No encoding is
// built yet; each is constructed on first request.
func New(mx *dataset.Matrix) (*Store, error) {
	if err := mx.Validate(); err != nil {
		return nil, err
	}
	controls, cases := mx.ClassCounts()
	return &Store{
		m: mx.SNPs(), n: mx.Samples(),
		controls: controls, cases: cases,
		mx:      mx,
		words32: make(map[words32Key]*dataset.Words32),
	}, nil
}

// SNPs returns the dataset's SNP count M.
func (s *Store) SNPs() int { return s.m }

// Samples returns the dataset's sample count N.
func (s *Store) Samples() int { return s.n }

// ClassCounts returns the number of controls and cases.
func (s *Store) ClassCounts() (controls, cases int) { return s.controls, s.cases }

// Builds snapshots the per-representation build counters.
func (s *Store) Builds() Builds {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds
}

// EncodeSeconds returns the cumulative wall time spent building
// encodings from scratch over the Store's lifetime. Pack-adopted
// representations cost nothing here; a traced search reports the delta
// across the call as its "encode" span.
func (s *Store) EncodeSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeSeconds
}

// timedBuildLocked runs one from-scratch representation build and
// charges its wall time to encodeSeconds. Only the outermost build of
// a nested chain records (the inner time is already inside the outer
// measurement).
func (s *Store) timedBuildLocked(build func()) {
	s.buildDepth++
	start := time.Now()
	build()
	d := time.Since(start)
	s.buildDepth--
	if s.buildDepth == 0 {
		s.encodeSeconds += d.Seconds()
	}
}

// Mapped reports whether the store's encodings alias an mmap'd pack.
func (s *Store) Mapped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mapped != nil
}

// Close releases the mmap region of a pack-mapped store. The Store and
// every representation obtained from it must not be used afterwards.
// Heap-backed stores need no Close; calling it is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mapped == nil {
		return nil
	}
	m := s.mapped
	s.mapped = nil
	s.bin, s.split, s.naive32, s.classPlanes = nil, nil, nil, nil
	s.words32 = make(map[words32Key]*dataset.Words32)
	s.packedGeno, s.packedPhen = nil, nil
	return munmapBytes(m)
}

// Hash returns the hex SHA-256 content hash identifying the dataset:
// the digest of the canonical packed genotype and phenotype sections.
// Identical matrices hash identically regardless of the input format
// they were parsed from.
func (s *Store) Hash() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hashLocked()
}

func (s *Store) hashLocked() string {
	if s.hash == "" {
		s.ensurePackedLocked()
		s.hash = contentHash(s.m, s.n, s.packedGeno, s.packedPhen)
	}
	return s.hash
}

// contentHash computes the canonical dataset digest.
func contentHash(m, n int, geno, phen []byte) string {
	h := sha256.New()
	var hdr [16]byte
	copy(hdr[:8], "tpack\x00v1")
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(n))
	h.Write(hdr[:])
	h.Write(geno)
	h.Write(phen)
	return hex.EncodeToString(h.Sum(nil))
}

// ensurePackedLocked materializes the canonical packed sections.
func (s *Store) ensurePackedLocked() {
	if s.packedGeno != nil {
		return
	}
	mx := s.matrixLocked()
	geno := make([]byte, (s.m*s.n+3)/4)
	for i := 0; i < s.m; i++ {
		packGenotypes(geno, i*s.n, mx.Row(i))
	}
	phen := make([]byte, (s.n+7)/8)
	for j := 0; j < s.n; j++ {
		phen[j/8] |= mx.Phen(j) << (uint(j) % 8)
	}
	s.packedGeno, s.packedPhen = geno, phen
}

// Matrix returns the raw genotype matrix, decoding it from the packed
// sections on pack-loaded stores (most searches never need it: the
// engines consume the plane encodings directly).
func (s *Store) Matrix() *dataset.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.matrixLocked()
}

func (s *Store) matrixLocked() *dataset.Matrix {
	if s.mx == nil {
		s.builds.Matrix++
		s.countBuild("matrix")
		s.timedBuildLocked(func() {
			mx := dataset.NewMatrix(s.m, s.n)
			for i := 0; i < s.m; i++ {
				unpackGenotypes(mx.Row(i), s.packedGeno, i*s.n)
			}
			for j := 0; j < s.n; j++ {
				if s.packedPhen[j/8]>>(uint(j)%8)&1 != 0 {
					mx.SetPhen(j, dataset.Case)
				}
			}
			s.mx = mx
		})
	}
	return s.mx
}

// Binarized returns the naive three-plane form (approach V1), building
// it on first request.
func (s *Store) Binarized() *dataset.Binarized {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.binarizedLocked()
}

func (s *Store) binarizedLocked() *dataset.Binarized {
	if s.bin == nil {
		s.builds.Binarized++
		s.countBuild("binarized")
		s.timedBuildLocked(func() { s.bin = dataset.Binarize(s.matrixLocked()) })
	}
	return s.bin
}

// SNPPlanes returns the three-plane form of the given SNPs only (any
// order, repeats allowed, SNPs the dataset does not have left out): out
// of the Binarized where the store holds one — adopted from a pack, or
// built for V1 — and otherwise encoded from those rows of the matrix,
// outside the lock. It builds and memoizes nothing, so a call that names
// its SNPs (a permutation test) never pays a dataset-wide encoding.
func (s *Store) SNPPlanes(snps []int) *dataset.SNPPlanes {
	s.mu.Lock()
	bin := s.bin
	var mx *dataset.Matrix
	if bin == nil {
		mx = s.matrixLocked()
	}
	s.mu.Unlock()
	if bin != nil {
		return bin.Select(snps)
	}
	return dataset.BinarizeSNPs(mx, snps)
}

// Split returns the phenotype-split two-plane form (approaches V2 and
// later), building it on first request.
func (s *Store) Split() *dataset.Split {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.splitLocked()
}

func (s *Store) splitLocked() *dataset.Split {
	if s.split == nil {
		s.builds.Split++
		s.countBuild("split")
		s.timedBuildLocked(func() { s.split = dataset.SplitBinarize(s.matrixLocked()) })
	}
	return s.split
}

// Naive32 returns the 32-bit naive form the GPU V1 kernel consumes.
func (s *Store) Naive32() *dataset.Naive32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.naive32 == nil {
		s.builds.Naive32++
		s.countBuild("naive32")
		s.timedBuildLocked(func() { s.naive32 = dataset.BuildNaive32(s.binarizedLocked()) })
	}
	return s.naive32
}

// Words32 returns the 32-bit phenotype-split form in the given GPU
// layout (bs is the SNP tile width, tiled layout only), building and
// memoizing one encoding per distinct (layout, bs) pair.
func (s *Store) Words32(layout dataset.Layout, bs int) *dataset.Words32 {
	if layout != dataset.LayoutTiled {
		bs = 0
	}
	key := words32Key{layout: layout, bs: bs}
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.words32[key]
	if !ok {
		s.builds.Words32++
		s.countBuild("words32")
		s.timedBuildLocked(func() { w = dataset.BuildWords32(s.splitLocked(), layout, bs) })
		s.words32[key] = w
	}
	return w
}

// ClassPlanes returns the per-class three-plane baseline form.
func (s *Store) ClassPlanes() *dataset.ClassPlanes {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.classPlanes == nil {
		s.builds.ClassPlanes++
		s.countBuild("classplanes")
		s.timedBuildLocked(func() { s.classPlanes = dataset.BuildClassPlanes(s.matrixLocked()) })
	}
	return s.classPlanes
}

// packGenotypes writes row into the 2-bit section packed (zeroed, four
// genotypes to the byte, the first in the low bits) from genotype index
// idx on: two bytes at a time where eight of the row's genotypes fill
// them, singly where the row starts or ends inside a byte it shares with
// its neighbour.
func packGenotypes(packed []byte, idx int, row []uint8) {
	head := min(len(row), -idx&3) // up to the next byte boundary
	body := (len(row) - head) &^ 7
	singly := func(idx int, row []uint8) {
		for j, g := range row {
			packed[(idx+j)/4] |= g << (uint(idx+j) % 4 * 2)
		}
	}
	singly(idx, row[:head])
	dst := packed[(idx+head)/4:]
	for j := head; j < head+body; j, dst = j+8, dst[2:] {
		x := binary.LittleEndian.Uint64(row[j:])
		x |= x>>6 | x>>12 | x>>18 // each half's four codes meet in its low byte
		dst[0], dst[1] = byte(x), byte(x>>32)
	}
	singly(idx+head+body, row[head+body:])
}

// unpackGenotypes is packGenotypes' inverse: it fills row from genotype
// index idx of packed on.
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

// phenVector builds the n-bit phenotype vector from a packed section.
func phenVector(n int, packed []byte) (*bitvec.Vector, error) {
	words := make([]uint64, bitvec.WordsFor(n))
	for k := range words {
		var w uint64
		for b := 0; b < 8; b++ {
			if k*8+b < len(packed) {
				w |= uint64(packed[k*8+b]) << (8 * b)
			}
		}
		words[k] = w
	}
	if mask := bitvec.TailMask(n); len(words) > 0 && words[len(words)-1]&^mask != 0 {
		return nil, fmt.Errorf("store: phenotype section has bits beyond sample %d", n)
	}
	return bitvec.FromWords(n, words), nil
}

// popcountBytes counts set bits across a byte slice.
func popcountBytes(b []byte) int {
	c := 0
	for _, x := range b {
		c += bits.OnesCount8(x)
	}
	return c
}
