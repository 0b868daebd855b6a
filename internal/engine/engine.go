// Package engine implements the paper's primary contribution: an
// exhaustive third-order epistasis search with four progressively
// optimized CPU approaches.
//
//	V1 (naive)      three stored genotype planes per SNP plus a
//	                phenotype vector; every frequency cell costs three
//	                plane ANDs, a phenotype AND/ANDNOT and two POPCNTs.
//	V2 (split)      dataset split by phenotype class and genotype-2
//	                planes inferred with NOR, removing the phenotype
//	                from the hot loop (~65% fewer compute operations,
//	                ~1/3 fewer bytes).
//	V3 (blocked)    V2 plus loop tiling: blocks of BS SNPs and BP
//	                samples sized so the BS^3 frequency tables plus the
//	                data block fit in the L1 data cache (Algorithm 1).
//	V4 (vector)     V3 with the multi-word lane kernels standing in for
//	                the paper's AVX/AVX-512 intrinsics.
//	V3F/V4F (fused) the blocked pipelines with the vector turned round:
//	                eight x SNPs per pass, one per 64-bit lane, and only
//	                the 8 cells of stored genotypes counted per (i1, i2)
//	                — x_a & y_b & z_c straight from the split planes
//	                (contingency.LaneKernel.TripleLanes) — into a lane
//	                table of the worker's BS^2 bank per class, set by a
//	                plane's first word tile and added to by the rest.
//	                The other 19 cells are derived (Derive) from the x
//	                lanes' pair counts against each SNP of the two
//	                blocks (XLanes), the (i1, i2) pair tables (PairLanes),
//	                both once per block triple, and the x marginals;
//	                the pass that completes a pair's tables scores the
//	                eight of them where they lie. One loop, whatever the
//	                plane length. V3F pins the pure-Go bodies, the
//	                oracle; V4F takes the tuned ones (AVX-512 VPOPCNTDQ
//	                where the host has it) and is the default.
//
// The fused loop (blocked.go, processBlockLanes) runs per block triple,
// per class, per word tile, per (i1, i2) of the block pair. Its block is
// one lane group (BS = 8, FusedTileParams), so b0's SNPs fill the lanes
// and meet up to BS² = 64 pairs, over which the transpose and the 16
// XLanes are spread. Its working set per word of tile is 128 bytes of
// x tile, read by every pass, and the words of the two blocks' y/z planes
// (16 bytes per SNP, up to 16 SNPs), each read by the 8 passes of its
// SNP; a pass adds eight rows to one 864-byte table of the class's bank.
// The class loop is outside the pair loop because alternating classes
// per pair keeps two x tiles live. The lanes cost their fill — a block
// triple with fewer than eight x SNPs below i1 pays for eight: 0.67 of
// the lanes are in use at 24 SNPs, 0.85 at 64, 0.96 at 224. The pass is
// bound by the vector operations it issues per word, which is why only 8
// of the 27 cells are counted per (i1, i2): 24 operations per word for
// eight triples, where counting 18 against prebuilt pair planes took 54
// and a plane build per pair. Two
// arrangements of that 18-cell pass were measured and dropped, and the
// reasons hold for this one: one block build per pair, kept across the
// x blocks that share it, with x tiles streamed against it (0.98x at
// 16384 samples, 0.76x at 500), and pre-transposed 8-aligned x tiles kept
// per search (0.91x at BS = 4, where a claim of two block triples was not
// 8-aligned and half-empty chunks doubled the passes; at BS = 8 every x
// block is aligned and the transpose is 3.5 % of the time).
//
// One run loop (run.go, Searcher.run) drives every search: a cursor over
// the run's space, and a pool of workers claiming tiles from it — the
// paper's dynamically scheduled thread pool — each scoring into the
// private top-K of its pooled arena, so the hot path has no
// synchronization, with the lists merged at the end. A search brings
// only its space and its tile body:
//
//	search                  claims from (sched space)         records as (approach)
//	Run, V1/V2              combination ranks ("flat")        "V1", "V2"
//	Run, V3/V4/V3F/V4F      block triples ("blocked")         "V3", "V4", "V3F", "V4F"
//	RunPairs, RunPairScreen pair ranks ("pair")               "pair"
//	RunK, orders 2..7       k-combination ranks ("kway")      "kway"
//	RunSeeded               seed x third-SNP ranks ("seeded") "seeded"
//
// Every run records its claims in the trigene_sched_* series under its
// space, its tiles and combinations in the trigene_engine_* series under
// its approach, and its throughput in Options.Meter.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"trigene/internal/bitvec"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/obs"
	"trigene/internal/sched"
	"trigene/internal/score"
	"trigene/internal/store"
)

// Approach selects one of the paper's four CPU pipelines.
type Approach int

const (
	// V1Naive is the Figure 1 baseline pipeline.
	V1Naive Approach = iota + 1
	// V2Split adds the phenotype split and NOR genotype inference.
	V2Split
	// V3Blocked adds L1-sized loop tiling (Algorithm 1).
	V3Blocked
	// V4Vector adds the lane-vectorized kernels.
	V4Vector
	// V3Fused restructures V3 so eight x SNPs are counted at a time, one
	// per lane, and only the eight cells of stored genotypes are counted
	// per (i1, i2) (8 AND3 + 8 POPCNT per combination word instead of
	// 3 NOR + 36 AND + 27 POPCNT; the other 19 cells are derived), on the
	// pure-Go bodies: the oracle pipeline of the fused kernel.
	V3Fused
	// V4Fused is the same pipeline on the bodies chosen for the host at
	// start-up (contingency.Kernel) — the default pipeline.
	V4Fused
)

// String returns the approach name used in reports ("V1".."V4").
func (a Approach) String() string {
	switch a {
	case V1Naive:
		return "V1"
	case V2Split:
		return "V2"
	case V3Blocked:
		return "V3"
	case V4Vector:
		return "V4"
	case V3Fused:
		return "V3F"
	case V4Fused:
		return "V4F"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// ParseApproach accepts "V1".."V4", the fused variants "V3F"/"V4F"
// (also reachable as "V5"/"V6" for wire forms that serialize the
// numeric value), plain digits, or the descriptive names "naive",
// "split", "blocked", "vector", "fused-blocked" and "fused", all
// case-insensitively.
func ParseApproach(s string) (Approach, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "v1", "1", "naive":
		return V1Naive, nil
	case "v2", "2", "split":
		return V2Split, nil
	case "v3", "3", "blocked":
		return V3Blocked, nil
	case "v4", "4", "vector", "vectorized":
		return V4Vector, nil
	case "v3f", "v5", "5", "fused-blocked", "fusedblocked", "blocked-fused":
		return V3Fused, nil
	case "v4f", "v6", "6", "fused", "fused-vector", "fusedvector", "vector-fused":
		return V4Fused, nil
	default:
		return 0, fmt.Errorf("engine: unknown approach %q (want V1..V4, V3F/V4F, or naive/split/blocked/vector/fused)", s)
	}
}

// fused reports whether the approach drives the pair-AND-caching
// kernels.
func (a Approach) fused() bool { return a == V3Fused || a == V4Fused }

// blocked reports whether the approach runs the block-tiled path
// (anything past the flat V1/V2 pipelines).
func (a Approach) blocked() bool { return a >= V3Blocked }

// Triple identifies a SNP combination i < j < k.
type Triple struct {
	I, J, K int
}

// String renders the triple as "(i,j,k)".
func (t Triple) String() string { return fmt.Sprintf("(%d,%d,%d)", t.I, t.J, t.K) }

// scored returns the triple as a candidate at score sc.
func (t Triple) scored(sc float64) Candidate {
	return Candidate{SNPs: [contingency.MaxOrder]int{t.I, t.J, t.K}, Score: sc}
}

// Candidate is a scored SNP combination of any order up to
// contingency.MaxOrder: its SNPs in increasing order, zero past the
// order. Two candidates of one order compare as whole arrays, and an
// Offer copies a fixed-size value, never a slice.
type Candidate struct {
	SNPs  [contingency.MaxOrder]int
	Score float64
}

// Less orders candidates of one order lexicographically by their SNPs:
// the tie-break of equal scores that makes every approach, worker count
// and shard merge return the same winners.
func (c Candidate) Less(o Candidate) bool { return slices.Compare(c.SNPs[:], o.SNPs[:]) < 0 }

// Stats reports the volume and speed of a completed search.
type Stats struct {
	// Combinations is the number of SNP combinations the run scored:
	// C(M,k) for a full search, the claimed share of the space on sharded
	// and shared-cursor runs.
	Combinations int64
	// Elements is the paper's work metric: Combinations x N.
	Elements float64
	// Duration is the wall time of the search phase (excluding dataset
	// binarization, which the store performs once up front).
	Duration time.Duration
	// ElementsPerSec is Elements / Duration.
	ElementsPerSec float64
}

// Result is the outcome of a search of any order.
type Result struct {
	// Order is the number of SNPs per candidate.
	Order int
	// Best is the winning candidate (ties broken by lexicographic SNP
	// order, so results are deterministic).
	Best Candidate
	// TopK holds the best candidates in best-first order, up to
	// Options.TopK entries.
	TopK []Candidate
	// Stats describes the completed run.
	Stats Stats
	// Space is the covered slice of the scheduler's work space when
	// Shard restricted the run; nil means the full space. Its ranks are
	// colexicographic combination (or seed-extension) ranks, except on
	// the blocked approaches (BlockSNPs set), where they are block-triple
	// ranks.
	Space *sched.Tile
	// BlockSNPs is the block size (Options.BlockSNPs) whose block triples
	// Space ranks count: 4 for V3/V4 by default, always contingency.Lanes
	// for V3F/V4F. Spaces cut at different block sizes rank different
	// triples. Zero when Space is nil or its ranks are not block triples.
	BlockSNPs int
}

// l1DataBytes is the L1 data cache the blocked approaches' tiles are
// sized for when Options leaves them zero.
const l1DataBytes = 32 << 10

// Options configures a search. The zero value means: V4F, all CPUs,
// K2 objective, top-1, tiles sized for a 32 KiB L1d.
type Options struct {
	// Approach selects the order-3 pipeline (default V4Fused).
	Approach Approach
	// Workers is the pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// Objective ranks candidates (default Bayesian K2).
	Objective score.Objective
	// TopK is how many candidates to return (default 1).
	TopK int
	// BlockSNPs (BS) and BlockWords (BP, in 64-bit words) tile the
	// blocked approaches. Zero derives both from a 32 KiB L1d: with the
	// paper's sizing rule for V3/V4, with FusedTileParams for V3F/V4F.
	// The fused block is always one lane group (contingency.Lanes SNPs),
	// so BlockSNPs sizes V3/V4 only: a fused run refuses any other
	// nonzero value, and BlockWords alone sets its word tile.
	BlockSNPs  int
	BlockWords int
	// Context optionally allows cancellation; a nil Context means
	// context.Background(). Cancellation is observed between work
	// chunks and returns the context error.
	Context context.Context
	// Shard restricts the search to slice Index of Count of the
	// scheduler's work space: combination ranks for the flat
	// approaches and orders 2/k, block-triple ranks for V3/V4 and
	// V3F/V4F, seed-extension ranks for a seeded run. Every run
	// supports it.
	Shard *sched.Shard
	// Grain overrides the flat source's ranks-per-claim tile size
	// (0 = the AutoGrain heuristic). The planner seeds it from the
	// modeled per-worker throughput; it never affects results, only
	// how the space is cut. Clamped to sched's [MinGrain, MaxGrain].
	Grain int64
	// Meter, when non-nil, receives per-consumer throughput samples as
	// workers finish tiles: worker w records into consumer MeterBase+w.
	// A heterogeneous run shares one meter between the CPU pool and
	// the device consumer so the realized split is observable live.
	Meter *sched.ThroughputMeter
	// MeterBase offsets this run's worker indices inside Meter.
	MeterBase int
	// Tiles optionally supplies an externally shared claiming cursor
	// over the run's rank space: the run's workers then steal work from
	// it alongside any other consumer (the heterogeneous backend's CPU
	// half), or drain a sub-range it covers. Not for the blocked
	// approaches, whose ranks are block triples; Shard and Progress are
	// ignored when set (the cursor owns the space and its progress).
	Tiles *sched.Cursor
	// Progress, when non-nil, is invoked from worker goroutines as
	// work chunks complete, with the cumulative number of evaluated
	// combinations and the total. It must be safe for concurrent use
	// and should return quickly.
	Progress func(done, total int64)
	// Metrics, when non-nil, receives the run's counters: tiles and
	// combinations scored per approach, plus the scheduler's claim
	// series. Metric pointers are resolved before the pool starts and
	// updated once per drained tile with plain atomic adds, so the hot
	// path stays allocation-free with a live registry attached.
	Metrics *obs.Registry
}

func (o Options) withDefaults(maxSamples int) (Options, error) {
	if o.Approach == 0 {
		o.Approach = V4Fused
	}
	if o.Approach < V1Naive || o.Approach > V4Fused {
		return o, fmt.Errorf("engine: invalid approach %d", int(o.Approach))
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("engine: negative worker count %d", o.Workers)
	}
	if o.Objective == nil {
		o.Objective = score.NewK2(maxSamples)
	}
	if o.TopK == 0 {
		o.TopK = 1
	}
	if o.TopK < 0 {
		return o, fmt.Errorf("engine: negative TopK %d", o.TopK)
	}
	switch {
	case o.Approach.fused():
		bs, bw := FusedTileParams(l1DataBytes)
		if o.BlockSNPs != 0 && o.BlockSNPs != bs {
			return o, fmt.Errorf("engine: %v's block is %d SNPs, have BlockSNPs %d", o.Approach, bs, o.BlockSNPs)
		}
		o.BlockSNPs = bs
		if o.BlockWords == 0 {
			o.BlockWords = bw
		}
	case o.BlockSNPs == 0 && o.BlockWords == 0:
		o.BlockSNPs, o.BlockWords = TileParams(l1DataBytes)
	}
	if o.BlockSNPs < 1 || o.BlockWords < 1 {
		if o.Approach.blocked() {
			return o, fmt.Errorf("engine: invalid tile %dx%d", o.BlockSNPs, o.BlockWords)
		}
		o.BlockSNPs, o.BlockWords = 1, 1
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Tiles != nil {
		o.Shard, o.Progress = nil, nil
	}
	if o.Shard != nil {
		if err := o.Shard.Validate(); err != nil {
			return o, err
		}
	}
	if o.Grain < 0 {
		return o, fmt.Errorf("engine: negative grain %d", o.Grain)
	}
	if o.Grain > 0 {
		if o.Grain < sched.MinGrain {
			o.Grain = sched.MinGrain
		}
		if o.Grain > sched.MaxGrain {
			o.Grain = sched.MaxGrain
		}
	}
	return o, nil
}

// TileParams derives the paper's loop-tiling parameters from an L1
// data cache budget. They size V3/V4, whose BS^3 bank of frequency
// tables is what BS is sized for; FusedTileParams sizes the lanes loop.
// The frequency-table region gets ~7/12 of the cache (the paper uses 7
// ways) and the data block ~1/3, so
//
//	BS = floor(cbrt(sizeFT / (2*27*4)))          [paper's beta_int = 4]
//	BP = sizeBlock / (BS * 4 * 2)  samples, rounded down to whole
//	     64-bit words (at least one).
func TileParams(l1Bytes int) (blockSNPs, blockWords int) {
	sizeFT := l1Bytes * 7 / 12
	sizeBlock := l1Bytes / 3
	bs := int(math.Cbrt(float64(sizeFT) / (2 * 27 * 4)))
	if bs < 2 {
		bs = 2
	}
	bp := sizeBlock / (bs * 4 * 2) // samples
	bw := bp / 64
	if bw < 1 {
		bw = 1
	}
	return bs, bw
}

// FusedTileParams derives the fused loop's tile. It keeps no BS^3 bank —
// its unit is one lane group of contingency.Lanes x SNPs — so its block is
// that lane group, the only block the loop takes: a block-triple rank is
// one aligned group of x SNPs, whose transpose and XLanes against the two
// blocks serve all BS² = 64 of its (i1, i2) pairs. The word tile comes from
// fusedTileWords and is a whole number of 8-word vectors (at least one),
// so only a class's last tile is ragged.
func FusedTileParams(l1Bytes int) (blockSNPs, blockWords int) {
	return contingency.Lanes, max(fusedTileWords(l1Bytes)&^7, 8)
}

// fusedTileWords sizes the fused loop's word tile from an L1 data budget.
// Of what the passes over a block triple's word tile read, only the x
// tile — 2 x Lanes words per word of tile — is read by every one of its 64
// passes; a y or z word is read only by the 8 passes of its SNP, and the
// pair loop walks one z at a time, so the y/z words stream through the
// cache rather than live in it. The x tile gets half the budget, less the
// eight counted rows a pass writes; the y/z stream and the XLanes counts
// have the other half. At the 32 KiB default that is 126 words (120 in
// whole vectors): at 16384 samples 120 ran ahead of 96 and 72 on one
// shape and level with them on the other, and tiles of 72 words and up
// hold a whole class of 8192 samples, so the width cannot move those.
func fusedTileWords(l1Bytes int) int {
	written := contingency.TripleCounted * contingency.Lanes * 4
	return max((l1Bytes/2-written)/(2*contingency.Lanes*8), 1)
}

// Searcher runs exhaustive searches over one dataset through its
// encoded-dataset store, which builds each binarized form lazily and
// memoizes it across runs: a V1 run materializes only the naive
// three-plane form, every other approach only the phenotype-split
// form. It is safe for concurrent use once constructed (runs
// themselves are internally parallel).
type Searcher struct {
	st *store.Store

	// marg caches the popcount of every stored plane of the split form,
	// marg[class][snp] = {|plane 0|, |plane 1|}: what the pair kernel
	// derives five of its nine cells from. Counted once, on the first
	// pair run.
	margOnce sync.Once
	marg     [2][][2]int32
}

// New validates the dataset and wraps it in a fresh encoded-dataset
// store. No encoding is built until the first run needs it.
func New(mx *dataset.Matrix) (*Searcher, error) {
	if mx.SNPs() < 3 {
		return nil, fmt.Errorf("engine: need at least 3 SNPs, have %d", mx.SNPs())
	}
	st, err := store.New(mx)
	if err != nil {
		return nil, err
	}
	return NewFromStore(st)
}

// NewPacked is New over a dataset's packed sections (a .raw read, a
// screened search's survivors): the store adopts them as they are and no
// Matrix is built.
func NewPacked(p *dataset.Packed) (*Searcher, error) {
	if p.M < 3 {
		return nil, fmt.Errorf("engine: need at least 3 SNPs, have %d", p.M)
	}
	st, err := store.NewPacked(p)
	if err != nil {
		return nil, err
	}
	return NewFromStore(st)
}

// NewFromStore wraps an existing encoded-dataset store (a Session's,
// or one loaded from a .tpack) so its memoized encodings are shared
// instead of rebuilt.
func NewFromStore(st *store.Store) (*Searcher, error) {
	if st.SNPs() < 3 {
		return nil, fmt.Errorf("engine: need at least 3 SNPs, have %d", st.SNPs())
	}
	return &Searcher{st: st}, nil
}

// Matrix returns the dataset the searcher was built from (decoding it
// on stores loaded from a pack).
func (s *Searcher) Matrix() *dataset.Matrix { return s.st.Matrix() }

// Store exposes the searcher's encoded-dataset store.
func (s *Searcher) Store() *store.Store { return s.st }

// Split exposes the phenotype-split form, building it on first use.
func (s *Searcher) Split() *dataset.Split { return s.st.Split() }

// marginals returns the per-SNP plane popcounts of the split form.
func (s *Searcher) marginals() *[2][][2]int32 {
	s.margOnce.Do(func() {
		split := s.st.Split()
		for class := range s.marg {
			s.marg[class] = make([][2]int32, split.M)
			for snp := range s.marg[class] {
				for g := 0; g < 2; g++ {
					s.marg[class][snp][g] = int32(bitvec.PopCount(split.Plane(class, snp, g)))
				}
			}
		}
	})
	return &s.marg
}

// Binarized exposes the naive three-plane form, building it on first
// use.
func (s *Searcher) Binarized() *dataset.Binarized { return s.st.Binarized() }

// Search is a convenience wrapper: build a Searcher and run once.
func Search(mx *dataset.Matrix, opts Options) (*Result, error) {
	s, err := New(mx)
	if err != nil {
		return nil, err
	}
	return s.Run(opts)
}

// Run executes an exhaustive third-order search with the given options.
func (s *Searcher) Run(opts Options) (*Result, error) {
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	sp, body, err := s.triples(&o)
	if err != nil {
		return nil, err
	}
	return s.run(&o, sp, body)
}

// triples returns the space and tile body of an order-3 run of the
// configured approach.
func (s *Searcher) triples(o *Options) (space, tiler, error) {
	if o.Approach.blocked() {
		return s.blockedRun(o)
	}
	return s.flatRun(o)
}
