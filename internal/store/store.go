// Package store is the unified encoded-dataset store: one immutable,
// content-addressed handle per dataset that lazily builds and memoizes
// every bit-plane representation the execution layers consume — the
// naive three-plane Binarized form (gpusim's V1), the phenotype-split
// form (every CPU search), the 32-bit GPU word layouts (one per
// layout/tile-width pair), the per-class three-plane baseline form —
// exactly once, no matter how many searches, backends or devices share
// the Store.
//
// Every encoding is made from the dataset's packed sections (2-bit
// genotypes, 1-bit phenotypes: dataset.Packed). A Store over a Matrix
// (New) packs it when first needed; one over a .raw read (NewPacked) or a
// .tpack (ReadPack, Open) adopts the sections it is given and builds the
// M x N byte Matrix only when Matrix is called — counted in Builds.Matrix
// and trigene_store_builds_total{repr="matrix"}.
//
// A Store also has a versioned packed on-disk format (.tpack): a
// magic/version header, the SHA-256 content hash, and the packed
// sections themselves, so the hash covers every byte a search reads.
// Open maps a .tpack with mmap where the platform allows it (a portable
// read-into-heap fallback covers the rest), so a worker or CLI starts
// from the sections without re-parsing the dataset; the first search
// builds its encoding from them. The content hash is the Store's
// identity: caches (the cluster worker's Session cache, on-disk pack
// caches) key on it, and a pack round-trip preserves it bit for bit.
package store

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"trigene/internal/dataset"
)

// Builds counts how many times each representation was constructed
// from scratch over a Store's lifetime. Tests assert the build-once
// guarantee on these counters.
type Builds struct {
	Binarized   int
	Split       int
	Naive32     int
	Words32     int // total across (layout, BS) keys
	ClassPlanes int
	Matrix      int // lazy matrix decodes on pack-loaded and text-born stores
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

	// mx is the raw matrix; nil on pack-loaded stores and text-born ones
	// until something (a cluster submission, a scalar permutation test)
	// actually needs the genotypes.
	mx *dataset.Matrix

	// hash is the hex SHA-256 content hash; computed lazily on
	// matrix-built and text-born stores, verified and adopted on pack
	// loads.
	hash string

	// packed is the canonical packed sections every encoding is made
	// from: lazily built from mx, adopted from a .raw read, or aliased
	// into a loaded pack.
	packed *dataset.Packed

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

// NewPacked returns a Store that adopts the packed sections p — what the
// .raw reader assembles — as ReadPack adopts a pack's: they are hashed as
// they are, and no Matrix is built until Matrix is called. Lengths and the
// bits past the last genotype and the last sample are checked; the
// genotypes are not range-checked (code 3 is in no plane, and the readers
// that assemble sections write none).
func NewPacked(p *dataset.Packed) (*Store, error) {
	if p.M <= 0 || p.N <= 0 {
		return nil, fmt.Errorf("store: invalid dimensions %dx%d", p.M, p.N)
	}
	if err := checkSections(p); err != nil {
		return nil, err
	}
	cases := popcountBytes(p.Phen)
	controls := p.N - cases
	if controls == 0 || cases == 0 {
		// Matrix.Validate's words, which a matrix-born store gives.
		return nil, fmt.Errorf("dataset: degenerate dataset: %d controls, %d cases", controls, cases)
	}
	return &Store{
		m: p.M, n: p.N,
		controls: controls, cases: cases,
		packed:  p,
		words32: make(map[words32Key]*dataset.Words32),
	}, nil
}

// checkSections checks the lengths of p's sections and that no bit is set
// past the last genotype or the last sample.
func checkSections(p *dataset.Packed) error {
	m, n := p.M, p.N
	if len(p.Geno) != (m*n+3)/4 {
		return fmt.Errorf("store: genotype section holds %d bytes, want %d", len(p.Geno), (m*n+3)/4)
	}
	if len(p.Phen) != (n+7)/8 {
		return fmt.Errorf("store: phenotype section holds %d bytes, want %d", len(p.Phen), (n+7)/8)
	}
	if rem := m * n % 4; rem != 0 && p.Geno[len(p.Geno)-1]>>(2*rem) != 0 {
		return fmt.Errorf("store: genotype section has bits beyond entry %d", m*n)
	}
	if rem := n % 8; rem != 0 && p.Phen[len(p.Phen)-1]>>rem != 0 {
		return fmt.Errorf("store: phenotype section has bits beyond sample %d", n)
	}
	return nil
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
// encodings from scratch over the Store's lifetime; a traced search
// reports the delta across the call as its "encode" span.
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

// Mapped reports whether the store's packed sections alias an mmap'd
// pack.
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
	s.packed = nil
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
		s.hash = s.packedLocked().Hash()
	}
	return s.hash
}

// Packed returns the dataset's canonical packed sections, packing the
// matrix first on a matrix-born store. They must not be modified.
func (s *Store) Packed() *dataset.Packed {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.packedLocked()
}

func (s *Store) packedLocked() *dataset.Packed {
	if s.packed == nil {
		s.packed = dataset.Pack(s.mx)
	}
	return s.packed
}

// Matrix returns the raw genotype matrix, decoding it from the packed
// sections on pack-loaded and text-born stores (most searches never need
// it: the engines consume the plane encodings directly).
func (s *Store) Matrix() *dataset.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.matrixLocked()
}

func (s *Store) matrixLocked() *dataset.Matrix {
	if s.mx == nil {
		s.builds.Matrix++
		s.countBuild("matrix")
		s.timedBuildLocked(func() { s.mx = s.packed.Matrix() })
	}
	return s.mx
}

// Binarized returns the naive three-plane form (what gpusim's V1 kernel
// re-encodes as Naive32), building it on first request.
func (s *Store) Binarized() *dataset.Binarized {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.binarizedLocked()
}

func (s *Store) binarizedLocked() *dataset.Binarized {
	if s.bin == nil {
		s.builds.Binarized++
		s.countBuild("binarized")
		s.timedBuildLocked(func() { s.bin = s.packedLocked().Binarize() })
	}
	return s.bin
}

// SNPPlanes returns the three-plane form of the given SNPs only (any
// order, repeats allowed, SNPs the dataset does not have left out),
// encoded from those rows of the packed sections outside the lock. It
// builds and memoizes nothing, so a call that names its SNPs (a
// permutation test) never pays a dataset-wide encoding.
func (s *Store) SNPPlanes(snps []int) *dataset.SNPPlanes {
	s.mu.Lock()
	p := s.packedLocked()
	s.mu.Unlock()
	return p.SNPPlanes(snps)
}

// Split returns the phenotype-split two-plane form (every CPU search),
// building it on first request.
func (s *Store) Split() *dataset.Split {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.splitLocked()
}

func (s *Store) splitLocked() *dataset.Split {
	if s.split == nil {
		s.builds.Split++
		s.countBuild("split")
		s.timedBuildLocked(func() { s.split = s.packedLocked().Split() })
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
		s.timedBuildLocked(func() { s.classPlanes = s.packedLocked().ClassPlanes() })
	}
	return s.classPlanes
}

// popcountBytes counts set bits across a byte slice.
func popcountBytes(b []byte) int {
	c := 0
	for _, x := range b {
		c += bits.OnesCount8(x)
	}
	return c
}
