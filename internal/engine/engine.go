// Package engine implements the paper's primary contribution: an
// exhaustive third-order epistasis search on the CPU. The paper's Fig. 2
// ladder (V1 naive → V2 phenotype split → V3 L1 tiling → V4 vectorized)
// arrives at one tiled, vectorized kernel; this package runs that one
// kernel, the lanes pass, in two arms, plus the V2 rank pipeline that
// shared-cursor consumers need:
//
//	V3F/V4F (lanes) eight x SNPs per pass, one per 64-bit lane, and only
//	                the 8 cells of stored genotypes counted per (i1, i2)
//	                — x_a & y_b & z_c straight from the split planes —
//	                into a lane table of the worker's BS^2 bank per
//	                class, set by a plane's first word tile and added to
//	                by the rest. The other 19 cells are derived on the
//	                last tile from the x lanes' pair counts against each
//	                SNP of the two blocks (counted per word tile too),
//	                the (i1, i2) pair tables (PairLanes, once per block
//	                pair), and the x marginals: one
//	                contingency.LaneKernel.Block call per block triple,
//	                class and word tile does all of it. The pair's two
//	                tables are then scored where they lie. One loop,
//	                whatever the plane length. V3F pins the pure-Go
//	                bodies, the oracle; V4F takes the tuned ones (AVX-512
//	                VPOPCNTDQ where the host has it) and is the default.
//	V2 (split)      one full-length table per combination from the
//	                phenotype-split planes, genotype 2 inferred with NOR
//	                (contingency.BuildSplitK), over combination ranks: the
//	                k-way rank body (kway.go, kWorker) at order 3. It is
//	                what a shared cursor (Options.Tiles — the
//	                heterogeneous backend's CPU half) can feed, and the
//	                reference the simulated GPU's parity tests compare
//	                against.
//
// V1, V3 and V4 name the simulated GPU's kernels and the planner's price
// list; Run refuses them.
//
// The fused loop (blocked.go, processBlockLanes) runs per block triple,
// per class, per word tile, one Block call over the (i1, i2) of the block
// pair. Its block is one lane group (BS = 8, FusedTileParams), so b0's
// SNPs fill the lanes and meet up to BS² = 64 pairs, over which the
// transpose and the 16 SNPs' pair counts are spread. Its working set per word of tile is 128 bytes of
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
// Order 2 walks the same block space one order down (pair.go, RunPairs
// and the screen's stage 1, RunPairScreen): a block pair (b1, b2) puts
// its pair tables in the arena's yz bank through the helper the lanes
// pass fills its (y, z) tables with (blockWorker.pairTables, b1's SNPs in
// the lanes against each SNP of b2), and the pair pass scores them where
// they lie. A screen's seeded extension (seeded.go, RunSeeded) runs the
// lanes pass's primitives with one (y, z), the seed pair, and up to eight
// consecutive third SNPs in the lanes, its rows permuted into
// sorted-triple order and scored under the same bound. So
// contingency.LaneKernel is the CPU's one counting path at orders 2 and 3
// besides V2's, and V3F runs its Go bodies at both. V2 and orders 4–7
// share the other one, the split builder and its rank body.
//
// One run loop (run.go, Searcher.run) drives every search: a cursor over
// the run's space, and a pool of workers claiming tiles from it — the
// paper's dynamically scheduled thread pool — each scoring into the
// private top-K of its pooled arena, so the hot path has no
// synchronization, with the lists merged at the end. A search brings
// only its space and its tile body:
//
//	search                  claims from (sched space)         records as (approach)
//	Run, V2                 triple ranks ("flat")             "V2"
//	Run, V3F/V4F            block triples ("blocked")         "V3F", "V4F"
//	RunPairs, RunPairScreen block pairs ("pair")              "pair"
//	RunK, orders 2..7       k-combination ranks ("kway")      "kway"
//	RunSeeded               seed x third-SNP ranks ("seeded") "seeded"
//
// Run's V2 and RunK are one tile body, kWorker, at order 3 and at order k.
//
// The block triples and block pairs are one space at two orders
// (blockSpace): multisets of blocks of contingency.Lanes SNPs, claimed one
// at a time.
//
// Every run records its claims in the trigene_sched_* series under its
// space, its tiles and combinations in the trigene_engine_* series under
// its approach, and its throughput in Options.Meter.
package engine

import (
	"context"
	"fmt"
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

// Approach numbers the paper's optimization stages. Run takes V2Split,
// V3Fused and V4Fused; V1Naive, V3Blocked and V4Vector name the
// simulated GPU's kernels and the planner's prices, not CPU pipelines.
type Approach int

const (
	// V1Naive is the Figure 1 baseline stage.
	V1Naive Approach = iota + 1
	// V2Split adds the phenotype split and NOR genotype inference.
	V2Split
	// V3Blocked adds L1-sized loop tiling (Algorithm 1).
	V3Blocked
	// V4Vector adds the vectorized kernels.
	V4Vector
	// V3Fused is the lanes pass: eight x SNPs counted at a time, one per
	// lane, and only the eight cells of stored genotypes counted per
	// (i1, i2) (8 AND3 + 8 POPCNT per combination word instead of
	// 3 NOR + 36 AND + 27 POPCNT; the other 19 cells are derived), on the
	// pure-Go bodies: the oracle arm of the CPU kernel.
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

// ParseApproach accepts the CPU's approaches: "V3F" and "V4F" (also
// reachable as "V5"/"V6" for wire forms that serialize the numeric
// value), plain digits 5 and 6, or the descriptive names
// "fused-blocked" and "fused", all case-insensitively.
func ParseApproach(s string) (Approach, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "v3f", "v5", "5", "fused-blocked", "fusedblocked", "blocked-fused":
		return V3Fused, nil
	case "v4f", "v6", "6", "fused", "fused-vector", "fusedvector", "vector-fused":
		return V4Fused, nil
	default:
		return 0, fmt.Errorf("engine: unknown approach %q (want V3F or V4F, or fused-blocked/fused)", s)
	}
}

// fused reports whether the approach runs the lanes pass.
func (a Approach) fused() bool { return a == V3Fused || a == V4Fused }

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
	// the block walk (BlockSNPs set): block-triple ranks on V3F/V4F,
	// block-pair ranks on RunPairs.
	Space *sched.Tile
	// BlockSNPs is the block size whose block tuples Space ranks count:
	// contingency.Lanes on the block walk. Spaces cut at different block
	// sizes rank different combinations. Zero when Space is nil or its
	// ranks are not block tuples.
	BlockSNPs int
}

// l1DataBytes is the L1 data cache the lanes pass's word tile is sized
// for when Options.BlockWords is zero.
const l1DataBytes = 32 << 10

// Options configures a search. The zero value means: V4F, all CPUs,
// K2 objective, top-1, word tiles sized for a 32 KiB L1d. No option
// sets the claim grain: a rank-space run cuts its space with
// sched.AutoGrain over the ranks it covers and Workers, and the block
// walk claims one block triple or block pair at a time.
type Options struct {
	// Approach selects the order-3 pipeline: V4Fused (the default),
	// V3Fused, or V2Split for shared-cursor runs; at order 2, V3Fused
	// runs the pair pass on the Go bodies. Any other value is refused.
	Approach Approach
	// Workers is the pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// Objective ranks candidates (default Bayesian K2).
	Objective score.Objective
	// TopK is how many candidates to return (default 1).
	TopK int
	// BlockWords is the lanes pass's word tile (BP, in 64-bit words);
	// zero takes FusedTileParams' for a 32 KiB L1d. Its block is always
	// one lane group of contingency.Lanes SNPs.
	BlockWords int
	// Context optionally allows cancellation; a nil Context means
	// context.Background(). Cancellation is observed between work
	// chunks and returns the context error.
	Context context.Context
	// Shard restricts the search to slice Index of Count of the
	// scheduler's work space: combination ranks for V2 and RunK,
	// block-triple ranks for V3F/V4F, block-pair ranks for RunPairs and
	// RunPairScreen, seed-extension ranks for a seeded run. Every run
	// supports it.
	Shard *sched.Shard
	// Meter, when non-nil, receives per-consumer throughput samples as
	// workers finish tiles: worker w records into consumer w. A
	// heterogeneous run shares one meter between the CPU pool and the
	// device consumer so the realized split is observable live.
	Meter *sched.ThroughputMeter
	// Tiles optionally supplies an externally shared claiming cursor
	// over the run's rank space: the run's workers then steal work from
	// it alongside any other consumer (the heterogeneous backend's CPU
	// half), or drain a sub-range it covers. The block walk (V3F/V4F,
	// RunPairs, RunPairScreen) refuses one: its ranks are block tuples.
	// Shard and Progress are ignored when set (the cursor owns the space
	// and its progress).
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
	if o.Approach != V2Split && !o.Approach.fused() {
		return o, fmt.Errorf("engine: approach %v is not a CPU pipeline (want V3F or V4F, or V2 for a shared cursor)", o.Approach)
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
	if o.BlockWords == 0 {
		_, o.BlockWords = FusedTileParams(l1DataBytes)
	}
	if o.BlockWords < 0 {
		return o, fmt.Errorf("engine: negative word tile %d", o.BlockWords)
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
	return o, nil
}

// FusedTileParams derives the lanes pass's tile. Its unit is one lane
// group of contingency.Lanes x SNPs, so its block is that lane group, the
// only block the loop takes: a block-triple rank is one aligned group of x
// SNPs, whose transpose and pair counts against the two blocks serve all BS² =
// 64 of its (i1, i2) pairs. The word tile comes from fusedTileWords and is
// a whole number of 8-word vectors (at least one), so only a class's last
// tile is ragged.
func FusedTileParams(l1Bytes int) (blockSNPs, blockWords int) {
	return contingency.Lanes, max(fusedTileWords(l1Bytes)&^7, 8)
}

// fusedTileWords sizes the fused loop's word tile from an L1 data budget.
// Of what the passes over a block triple's word tile read, only the x
// tile — 2 x Lanes words per word of tile — is read by every one of its 64
// passes; a y or z word is read only by the 8 passes of its SNP, and the
// pair loop walks one z at a time, so the y/z words stream through the
// cache rather than live in it. The x tile gets half the budget, less the
// eight counted rows a pass writes; the y/z stream and the pair counts
// have the other half. At the 32 KiB default that is 126 words (120 in
// whole vectors): at 16384 samples 120 ran ahead of 96 and 72 on one
// shape and level with them on the other, and tiles of 72 words and up
// hold a whole class of 8192 samples, so the width cannot move those.
func fusedTileWords(l1Bytes int) int {
	written := contingency.TripleCounted * contingency.Lanes * 4
	return max((l1Bytes/2-written)/(2*contingency.Lanes*8), 1)
}

// Searcher runs exhaustive searches over one dataset through its
// encoded-dataset store, which builds the phenotype-split form lazily
// and memoizes it across runs. It is safe for concurrent use once
// constructed (runs themselves are internally parallel).
type Searcher struct {
	st *store.Store

	// marg caches the popcount of every stored plane of the split form,
	// marg[class][snp] = {|plane 0|, |plane 1|}: what the pair kernel
	// derives five of its nine cells from, and the block entry the x lanes'
	// cells.
	// Counted once, on the first run of the block walk or the seeded
	// extension.
	margOnce sync.Once
	marg     [2][][2]int32
}

// New validates the dataset and wraps it in a fresh encoded-dataset
// store. No encoding is built until the first run needs it.
func New(mx *dataset.Matrix) (*Searcher, error) {
	if err := CheckSNPs(mx.SNPs()); err != nil {
		return nil, err
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
	if err := CheckSNPs(p.M); err != nil {
		return nil, err
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
	if err := CheckSNPs(st.SNPs()); err != nil {
		return nil, err
	}
	return &Searcher{st: st}, nil
}

// CheckSNPs is the one check every Searcher constructor makes of a
// dataset's shape: a search needs at least 3 SNPs.
func CheckSNPs(m int) error {
	if m < 3 {
		return fmt.Errorf("engine: need at least 3 SNPs, have %d", m)
	}
	return nil
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
	if o.Approach.fused() {
		return s.blockedRun(o)
	}
	sp, body, err := s.kway(o, 3, "flat")
	sp.approach = o.Approach.String()
	return sp, body, err
}
