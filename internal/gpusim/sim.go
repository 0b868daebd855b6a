package gpusim

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"time"

	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/device"
	"trigene/internal/engine"
	"trigene/internal/sched"
	"trigene/internal/score"
	"trigene/internal/store"
)

// Kernel selects one of the paper's four GPU approaches.
type Kernel int

const (
	// K1Naive: three stored planes plus phenotype, SNP-major layout.
	K1Naive Kernel = iota + 1
	// K2Split: phenotype-split data, NOR-inferred genotype 2,
	// SNP-major layout (uncoalesced warp loads).
	K2Split
	// K3Transposed: K2 on the transposed layout, coalescing loads of
	// consecutive-combination threads.
	K3Transposed
	// K4Tiled: K2 on the SNP-tiled layout with workgroup-sized tiles.
	K4Tiled
	// K5Fused: K4 with the (j, k) pair-AND products hoisted out of the
	// per-thread loop — consecutive colex-ranked threads share (j, k),
	// so one thread per group loads the y/z planes and builds the nine
	// pair products for the whole group (shared-local-memory staging on
	// a real device), leaving each thread 1 NOR + 27 AND + 27 POPCNT.
	K5Fused
)

// String returns the kernel name used in reports.
func (k Kernel) String() string {
	switch k {
	case K1Naive:
		return "V1"
	case K2Split:
		return "V2"
	case K3Transposed:
		return "V3"
	case K4Tiled:
		return "V4"
	case K5Fused:
		return "V4F"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel accepts "V1".."V4", the fused "V4F" (or its numeric
// wire forms "V5"/"V6" — the CPU numbering has two fused variants,
// both mapping onto the one fused GPU kernel), plain digits, or the
// descriptive names "naive", "split", "transposed", "tiled" and
// "fused", all case-insensitively.
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "v1", "1", "naive":
		return K1Naive, nil
	case "v2", "2", "split":
		return K2Split, nil
	case "v3", "3", "transposed":
		return K3Transposed, nil
	case "v4", "4", "tiled":
		return K4Tiled, nil
	case "v4f", "v5", "5", "v6", "6", "fused", "fused-tiled", "tiled-fused":
		return K5Fused, nil
	default:
		return 0, fmt.Errorf("gpusim: unknown kernel %q (want V1..V4, V4F, or naive/split/transposed/tiled/fused)", s)
	}
}

// maxWarp is the largest warp width across modeled devices (GCN/CDNA
// wavefronts are 64 wide).
const maxWarp = 64

// The memory system and scheduler are modeled at the paper's values.
// The SNP tile width of the tiled layouts is the device's warp size.
const (
	// coalesceBytes is the memory transaction segment size.
	coalesceBytes = 32
	// l2Ways is the L2 associativity.
	l2Ways = 16
	// schedBlock is Algorithm 2's per-dimension scheduling block: each
	// kernel enqueue covers schedBlock^3 thread slots indexed by
	// (i0, i1, i2), and slots violating the i0 < i1 < i2 guard idle.
	// Only the utilization accounting depends on it.
	schedBlock = 256
)

// Per-thread, per-32-bit-word operation counts for the kernels, per
// class pass. The naive kernel evaluates 27 cells at 6 instructions
// each (paper: 27x6 = 162, of which 2 are POPCNT); the split kernels
// spend 3 NOR + 9 XY-AND + 27 Z-AND + 27 table adds and 27 POPCNT
// (paper's "57" counts the NORs once and one AND+POPCNT per cell).
const (
	naiveALUPerWord  = 108 // 27 * (2 plane AND + phenotype AND + ANDNOT)
	naiveAddPerWord  = 54
	naivePopPerWord  = 54
	naiveLoadPerWord = 10 // 9 plane words + 1 phenotype word

	splitALUPerWord  = 39 // 3 NOR + 9 XY AND + 27 Z AND
	splitAddPerWord  = 27
	splitPopPerWord  = 27
	splitLoadPerWord = 6

	// The fused kernel splits its accounting between per-thread work
	// (the x plane against the nine cached pair products) and per-
	// (j, k)-group work (loading y/z and building the products once
	// for every thread that shares the pair).
	fusedThreadALUPerWord  = 28 // 1 NOR + 27 AND
	fusedAddPerWord        = 27
	fusedPopPerWord        = 27
	fusedPairALUPerWord    = 11 // 2 NOR + 9 AND, once per group
	fusedThreadLoadPerWord = 2  // x planes
	fusedPairLoadPerWord   = 4  // y/z planes, once per group
)

// Options configures a simulated search. None of it tunes how the space
// is cut: an own cursor claims fixed warp-sized tiles, and on a shared
// cursor the span of a device claim comes from Meter.
type Options struct {
	// Kernel selects the approach (default K4Tiled; K5Fused is the
	// pair-AND-hoisted variant the CPU engine's fused approaches map
	// to).
	Kernel Kernel
	// Objective ranks candidates (default Bayesian K2).
	Objective score.Objective
	// TopK is how many ranked candidates to return (default 1). The
	// simulated device keeps the list host-side, exactly as the CPU
	// engine's workers do, so sharded and heterogeneous runs merge
	// full per-side top-K lists instead of dropping to a single best.
	TopK int
	// Range restricts the search to combination ranks [Lo, Hi) in
	// colexicographic order — the shard primitive. Nil means the full
	// space.
	Range *combin.Range
	// Tiles optionally supplies an externally shared claiming cursor
	// over the combination-rank space: the simulated device then
	// steals tiles from the same space as the cursor's other consumers
	// (the heterogeneous backend's CPU half). Range is ignored when
	// set — the cursor owns the space.
	Tiles *sched.Cursor
	// Started, when non-nil, is invoked exactly once, right after the
	// device's first tile claim (successful or not). The heterogeneous
	// backend sequences its CPU half on it, so the device is
	// guaranteed a share of a shared space before faster consumers
	// start draining it.
	Started func()
	// Meter, when non-nil, records this consumer's realized
	// throughput under slot MeterConsumer, and — on a shared cursor —
	// feeds it back: the device claims 4 CPU-sized grains at a time
	// until the meter has warmed up, then spans proportional to its
	// measured rate relative to the other consumers.
	Meter         *sched.ThroughputMeter
	MeterConsumer int
	// Context optionally allows cancellation; nil means
	// context.Background(). Cancellation is observed between warp
	// batches and returns the context error.
	Context context.Context
}

// Stats aggregates the executed operations, the memory behaviour and
// the modeled timing of one simulated search. The JSON tags are part
// of the Report wire format (trigene's stable Report JSON carries
// these stats on the "gpu" key) and must stay stable.
type Stats struct {
	Combinations int64   `json:"combinations"`
	Elements     float64 `json:"elements"`

	ALUOps    int64 `json:"aluOps"`    // bitwise ops + table adds, on stream cores
	PopcntOps int64 `json:"popcntOps"` // on the POPCNT-capable units
	Loads     int64 `json:"loads"`     // per-thread 32-bit loads issued

	RequestedBytes int64 `json:"requestedBytes"` // Loads * 4
	Transactions   int64 `json:"transactions"`   // coalesced memory transactions
	L2Hits         int64 `json:"l2Hits"`
	L2Misses       int64 `json:"l2Misses"`
	L2Bytes        int64 `json:"l2Bytes"`   // Transactions * coalesceBytes
	DRAMBytes      int64 `json:"dramBytes"` // L2Misses * cacheLine

	// Thread-scheduling accounting (Algorithm 2): every enqueue spawns
	// schedBlock^3 thread slots over an (i0, i1, i2) block; only slots with
	// i0 < i1 < i2 do work. Utilization = Active / Scheduled.
	ScheduledThreads int64   `json:"scheduledThreads"`
	ActiveThreads    int64   `json:"activeThreads"`
	Utilization      float64 `json:"utilization"`

	ComputeCycles float64 `json:"computeCycles"`
	MemoryCycles  float64 `json:"memoryCycles"`
	Cycles        float64 `json:"cycles"`
	ModelSeconds  float64 `json:"modelSeconds"`

	ElementsPerSec      float64 `json:"elementsPerSec"` // modeled, whole device
	ElementsPerCyclePer struct {
		CU         float64 `json:"cu"`
		StreamCore float64 `json:"streamCore"`
	} `json:"elementsPerCyclePer"`
}

// Result is the outcome of a simulated search.
type Result struct {
	Best engine.Candidate
	// TopK holds up to Options.TopK candidates in best-first order
	// (objective first, lexicographic triple tie-break — the ordering
	// every backend shares).
	TopK  []engine.Candidate
	Stats Stats
}

// Runner simulates GPU searches on one device.
type Runner struct {
	dev device.GPU
}

// New returns a Runner for the given Table II device.
func New(dev device.GPU) *Runner { return &Runner{dev: dev} }

// Search runs the exhaustive 3-way search on the simulated device and
// returns the (bit-exact) best candidate together with the modeled
// execution statistics. The 32-bit word encodings come from the
// encoded-dataset store, which builds each (kernel, layout, tile
// width) form once and shares it across runs, layouts and devices.
func (r *Runner) Search(st *store.Store, opts Options) (*Result, error) {
	if st.SNPs() < 3 {
		return nil, fmt.Errorf("gpusim: need at least 3 SNPs, have %d", st.SNPs())
	}
	if opts.Kernel == 0 {
		opts.Kernel = K4Tiled
	}
	if opts.Kernel < K1Naive || opts.Kernel > K5Fused {
		return nil, fmt.Errorf("gpusim: invalid kernel %d", int(opts.Kernel))
	}
	if opts.Objective == nil {
		opts.Objective = score.NewK2(st.Samples())
	}
	if opts.TopK == 0 {
		opts.TopK = 1
	}
	if opts.TopK < 0 {
		return nil, fmt.Errorf("gpusim: invalid TopK %d", opts.TopK)
	}

	sim := &simState{
		dev:  r.dev,
		opts: opts,
		l2:   newLRUCache(r.dev.L2Bytes, l2Ways),
		top:  engine.NewTopK(opts.Objective, opts.TopK),
	}
	switch opts.Kernel {
	case K1Naive:
		sim.naive = st.Naive32()
	case K2Split:
		sim.words = st.Words32(dataset.LayoutRowMajor, 0)
	case K3Transposed:
		sim.words = st.Words32(dataset.LayoutTransposed, 0)
	case K4Tiled, K5Fused:
		sim.words = st.Words32(dataset.LayoutTiled, r.dev.WarpSize)
	}

	m := st.SNPs()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	warp := r.dev.WarpSize

	// Work distribution goes through the tile scheduler: either the
	// run's own cursor over its rank range, or a shared cursor other
	// consumers are draining concurrently. One tile is one simulated
	// kernel enqueue; warps iterate inside it, and cancellation is
	// observed between tiles.
	cur := opts.Tiles
	claimGrains := int64(1)
	shared := cur != nil
	if cur == nil {
		lo, hi := int64(0), combin.Triples(m)
		if r := opts.Range; r != nil {
			if r.Lo < 0 || r.Hi < r.Lo || r.Hi > hi {
				return nil, fmt.Errorf("gpusim: invalid rank range [%d,%d) of %d", r.Lo, r.Hi, hi)
			}
			lo, hi = r.Lo, r.Hi
		}
		cur = sched.NewCursor(sched.NewSource(lo, hi, int64(warp)*256))
	} else {
		// On a shared cursor the grain was sized for CPU workers; the
		// device claims larger spans to amortize its launch overhead,
		// the way real kernel enqueues batch the space. The meter
		// refines the multiplier below once measured rates exist.
		claimGrains = 4
	}
	started := opts.Started
	signalStarted := func() {
		if started != nil {
			started()
			started = nil
		}
	}
	// Cancellation is observed between claims and again between warp
	// batches inside a claimed tile, so a cancelled search returns
	// within one warp even when the tile is large (a device claim on a
	// shared heterogeneous cursor spans several CPU grains).
	for {
		if err := ctx.Err(); err != nil {
			signalStarted()
			return nil, err
		}
		if shared && opts.Meter != nil {
			// Mid-search refinement: once both sides have measured
			// rates, claim spans proportional to the realized ratio
			// rather than the constant 4.
			if g := opts.Meter.SuggestGrains(opts.MeterConsumer, 64); g > 0 {
				claimGrains = g
			}
		}
		t, ok := cur.Claim(claimGrains)
		signalStarted()
		if !ok {
			break
		}
		tileStart := time.Now()
		for lo := t.Lo; lo < t.Hi; lo += int64(warp) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			hi := lo + int64(warp)
			if hi > t.Hi {
				hi = t.Hi
			}
			sim.runWarp(m, lo, hi)
		}
		sim.stats.Combinations += t.Len()
		if opts.Meter != nil {
			opts.Meter.Record(opts.MeterConsumer, t.Len(), time.Since(tileStart))
		}
		cur.Finish(t.Len())
	}

	sim.stats.Elements = float64(sim.stats.Combinations) * float64(st.Samples())
	sim.accountScheduling(m)
	sim.finishTiming()
	res := &Result{Stats: sim.stats, TopK: sim.top.List()}
	if len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	} else {
		res.Best = engine.Candidate{Score: opts.Objective.Worst()}
	}
	return res, nil
}

// accountScheduling computes the Algorithm 2 thread-slot utilization
// at the modeled scheduling block.
func (s *simState) accountScheduling(m int) {
	s.stats.ActiveThreads = s.stats.Combinations
	s.stats.ScheduledThreads = scheduledThreads(m, s.stats.Combinations, schedBlock)
	if s.stats.ScheduledThreads > 0 {
		s.stats.Utilization = float64(s.stats.ActiveThreads) / float64(s.stats.ScheduledThreads)
	}
}

// scheduledThreads counts the thread slots Algorithm 2 spawns for
// combos of an m-SNP space's ranks: kernel enqueues cover block
// triples (b0 <= b1 <= b2) of bs-wide index blocks, so the scheduled
// slots are C(nb+2,3) * bs^3 scaled to the evaluated rank share.
func scheduledThreads(m int, combos int64, bs int) int64 {
	b := int64(bs)
	nb := combin.TripleBlocks(m, bs)
	scheduledFull := combin.Triples(nb+2) * b * b * b
	share := 1.0
	if totalFull := combin.Triples(m); totalFull > 0 {
		share = float64(combos) / float64(totalFull)
	}
	return int64(float64(scheduledFull) * share)
}

// simState carries the per-search mutable state.
type simState struct {
	dev  device.GPU
	opts Options
	l2   *lruCache

	naive *dataset.Naive32
	words *dataset.Words32

	stats Stats
	top   *engine.TopK

	// Reused warp-sized buffers.
	ti, tj, tk [maxWarp]int
	regs       [3][3][maxWarp]uint32 // [snp role][plane][thread]
	phenRegs   [maxWarp]uint32
	ft         [maxWarp][2][contingency.Cells]int32
	addrs      [maxWarp]uint64
}

// runWarp executes threads for combination ranks [lo, hi).
func (s *simState) runWarp(m int, lo, hi int64) {
	tc := int(hi - lo)
	i, j, k := combin.UnrankTriple(lo, m)
	for t := 0; t < tc; t++ {
		s.ti[t], s.tj[t], s.tk[t] = i, j, k
		i, j, k, _ = combin.NextTriple(i, j, k, m)
	}
	for t := 0; t < tc; t++ {
		s.ft[t] = [2][contingency.Cells]int32{}
	}
	switch s.opts.Kernel {
	case K1Naive:
		s.runWarpNaive(tc)
	case K5Fused:
		s.runWarpFused(tc)
	default:
		s.runWarpSplit(tc)
	}
	// Score each thread's table; the host-side reduction keeps the
	// deterministic lexicographic tie-break used by the CPU engine.
	for t := 0; t < tc; t++ {
		var tab contingency.Table
		tab.Counts = s.ft[t]
		sc := s.opts.Objective.Score(&tab)
		s.top.Offer(engine.Candidate{SNPs: [contingency.MaxOrder]int{s.ti[t], s.tj[t], s.tk[t]}, Score: sc})
	}
}

// runWarpSplit executes one warp of the V2/V3/V4 kernel body.
func (s *simState) runWarpSplit(tc int) {
	w32 := s.words
	snps := [3]*[maxWarp]int{&s.ti, &s.tj, &s.tk}
	for class := 0; class < 2; class++ {
		words := w32.W[class]
		for w := 0; w < words; w++ {
			for role := 0; role < 3; role++ {
				for g := 0; g < 2; g++ {
					data := w32.Data(class, g)
					base := uint64(class*2+g) << 40
					for t := 0; t < tc; t++ {
						idx := w32.Index(snps[role][t], w, class)
						s.regs[role][g][t] = data[idx]
						s.addrs[t] = base + uint64(idx)*4
					}
					s.coalesce(tc)
				}
			}
			for t := 0; t < tc; t++ {
				x0, x1 := s.regs[0][0][t], s.regs[0][1][t]
				y0, y1 := s.regs[1][0][t], s.regs[1][1][t]
				z0, z1 := s.regs[2][0][t], s.regs[2][1][t]
				xs := [3]uint32{x0, x1, ^(x0 | x1)}
				ys := [3]uint32{y0, y1, ^(y0 | y1)}
				zs := [3]uint32{z0, z1, ^(z0 | z1)}
				ft := &s.ft[t][class]
				idx := 0
				for gx := 0; gx < 3; gx++ {
					for gy := 0; gy < 3; gy++ {
						xy := xs[gx] & ys[gy]
						ft[idx] += int32(bits.OnesCount32(xy & zs[0]))
						ft[idx+1] += int32(bits.OnesCount32(xy & zs[1]))
						ft[idx+2] += int32(bits.OnesCount32(xy & zs[2]))
						idx += 3
					}
				}
			}
		}
		wt := int64(words) * int64(tc)
		s.stats.ALUOps += (splitALUPerWord + splitAddPerWord) * wt
		s.stats.PopcntOps += splitPopPerWord * wt
		s.stats.Loads += splitLoadPerWord * wt
		// NOR padding correction, as on the CPU side.
		for t := 0; t < tc; t++ {
			s.ft[t][class][contingency.Cells-1] -= int32(w32.Pad[class])
		}
	}
}

// runWarpFused executes one warp of the K5 kernel body: threads with
// the same (j, k) form a group; the group's first thread loads the y/z
// planes and derives the nine pair-AND products, which the rest of the
// group reuses (shared-local-memory staging on a real device). Colex
// rank order makes groups long: i varies fastest, so a warp typically
// spans one or two (j, k) pairs.
func (s *simState) runWarpFused(tc int) {
	w32 := s.words
	groups := 0
	for t := 0; t < tc; t++ {
		if t == 0 || s.tj[t] != s.tj[t-1] || s.tk[t] != s.tk[t-1] {
			groups++
		}
	}
	for class := 0; class < 2; class++ {
		words := w32.W[class]
		for w := 0; w < words; w++ {
			// x planes: every thread loads its own words.
			for g := 0; g < 2; g++ {
				data := w32.Data(class, g)
				base := uint64(class*2+g) << 40
				for t := 0; t < tc; t++ {
					idx := w32.Index(s.ti[t], w, class)
					s.regs[0][g][t] = data[idx]
					s.addrs[t] = base + uint64(idx)*4
				}
				s.coalesce(tc)
			}
			// y/z planes: one load per (j, k) group, broadcast within it.
			for role := 1; role < 3; role++ {
				snp := &s.tj
				if role == 2 {
					snp = &s.tk
				}
				for g := 0; g < 2; g++ {
					data := w32.Data(class, g)
					base := uint64(class*2+g) << 40
					nl := 0
					for t := 0; t < tc; t++ {
						if t > 0 && s.tj[t] == s.tj[t-1] && s.tk[t] == s.tk[t-1] {
							s.regs[role][g][t] = s.regs[role][g][t-1]
							continue
						}
						idx := w32.Index(snp[t], w, class)
						s.regs[role][g][t] = data[idx]
						s.addrs[nl] = base + uint64(idx)*4
						nl++
					}
					s.coalesce(nl)
				}
			}
			var yz [9]uint32
			for t := 0; t < tc; t++ {
				if t == 0 || s.tj[t] != s.tj[t-1] || s.tk[t] != s.tk[t-1] {
					y0, y1 := s.regs[1][0][t], s.regs[1][1][t]
					z0, z1 := s.regs[2][0][t], s.regs[2][1][t]
					ys := [3]uint32{y0, y1, ^(y0 | y1)}
					zs := [3]uint32{z0, z1, ^(z0 | z1)}
					p := 0
					for gy := 0; gy < 3; gy++ {
						yz[p] = ys[gy] & zs[0]
						yz[p+1] = ys[gy] & zs[1]
						yz[p+2] = ys[gy] & zs[2]
						p += 3
					}
				}
				x0, x1 := s.regs[0][0][t], s.regs[0][1][t]
				xs := [3]uint32{x0, x1, ^(x0 | x1)}
				ft := &s.ft[t][class]
				idx := 0
				for gx := 0; gx < 3; gx++ {
					x := xs[gx]
					for p := 0; p < 9; p++ {
						ft[idx] += int32(bits.OnesCount32(x & yz[p]))
						idx++
					}
				}
			}
		}
		wt := int64(words) * int64(tc)
		gw := int64(words) * int64(groups)
		s.stats.ALUOps += (fusedThreadALUPerWord+fusedAddPerWord)*wt + fusedPairALUPerWord*gw
		s.stats.PopcntOps += fusedPopPerWord * wt
		s.stats.Loads += fusedThreadLoadPerWord*wt + fusedPairLoadPerWord*gw
		for t := 0; t < tc; t++ {
			s.ft[t][class][contingency.Cells-1] -= int32(w32.Pad[class])
		}
	}
}

// runWarpNaive executes one warp of the V1 kernel body.
func (s *simState) runWarpNaive(tc int) {
	n32 := s.naive
	snps := [3]*[maxWarp]int{&s.ti, &s.tj, &s.tk}
	for w := 0; w < n32.W; w++ {
		for role := 0; role < 3; role++ {
			for g := 0; g < 3; g++ {
				data := n32.Data(g)
				base := uint64(g) << 40
				for t := 0; t < tc; t++ {
					idx := snps[role][t]*n32.W + w
					s.regs[role][g][t] = data[idx]
					s.addrs[t] = base + uint64(idx)*4
				}
				s.coalesce(tc)
			}
		}
		phenBase := uint64(3) << 40
		for t := 0; t < tc; t++ {
			s.phenRegs[t] = n32.Phen[w]
			s.addrs[t] = phenBase + uint64(w)*4
		}
		s.coalesce(tc)
		for t := 0; t < tc; t++ {
			phen := s.phenRegs[t]
			idx := 0
			for gx := 0; gx < 3; gx++ {
				x := s.regs[0][gx][t]
				for gy := 0; gy < 3; gy++ {
					xy := x & s.regs[1][gy][t]
					for gz := 0; gz < 3; gz++ {
						v := xy & s.regs[2][gz][t]
						s.ft[t][dataset.Case][idx] += int32(bits.OnesCount32(v & phen))
						s.ft[t][dataset.Control][idx] += int32(bits.OnesCount32(v &^ phen))
						idx++
					}
				}
			}
		}
	}
	wt := int64(n32.W) * int64(tc)
	s.stats.ALUOps += (naiveALUPerWord + naiveAddPerWord) * wt
	s.stats.PopcntOps += naivePopPerWord * wt
	s.stats.Loads += naiveLoadPerWord * wt
}

// coalesce groups the warp's addresses into transaction segments,
// counts them, and touches the L2 once per distinct cache line.
func (s *simState) coalesce(tc int) {
	a := s.addrs[:tc]
	// Insertion sort: address streams are nearly sorted because thread
	// rank orders mostly follow SNP order.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
	seg := uint64(coalesceBytes)
	lastSeg := ^uint64(0)
	lastLine := ^uint64(0)
	for _, addr := range a {
		if sid := addr / seg; sid != lastSeg {
			lastSeg = sid
			s.stats.Transactions++
		}
		if lid := addr / cacheLine; lid != lastLine {
			lastLine = lid
			s.l2.access(addr)
		}
	}
}

// finishTiming converts the operation and transaction counts into the
// roofline timing model:
//
//	compute cycles = max(ALU / (CUs * streamCores/CU),
//	                     POPCNT / (CUs * popcnt/CU))
//	memory  cycles = max(L2 bytes / L2 bytes-per-cycle,
//	                     DRAM bytes / (DRAM GB/s / boost GHz))
//	total          = max(compute, memory)        [perfect overlap]
func (s *simState) finishTiming() {
	st := &s.stats
	st.RequestedBytes = st.Loads * 4
	st.L2Bytes = st.Transactions * coalesceBytes
	st.L2Hits = s.l2.hits
	st.L2Misses = s.l2.misses
	st.DRAMBytes = st.L2Misses * cacheLine

	d := s.dev
	aluCyc := float64(st.ALUOps) / (float64(d.CUs) * float64(d.StreamCoresPerCU()))
	popCyc := float64(st.PopcntOps) / (float64(d.CUs) * d.PopcntPerCU)
	if d.SharedPopcntPipe {
		// Intel EUs execute POPCNT on the same pipes as the rest of the
		// ALU work, so the two serialize instead of overlapping.
		st.ComputeCycles = aluCyc + popCyc
	} else {
		st.ComputeCycles = maxf(aluCyc, popCyc)
	}

	l2Cyc := float64(st.L2Bytes) / d.L2BytesPerCycle
	dramBytesPerCycle := d.DRAMGBs / d.BoostGHz
	dramCyc := float64(st.DRAMBytes) / dramBytesPerCycle
	st.MemoryCycles = maxf(l2Cyc, dramCyc)

	st.Cycles = maxf(st.ComputeCycles, st.MemoryCycles)
	st.ModelSeconds = st.Cycles / (d.BoostGHz * 1e9)
	if st.ModelSeconds > 0 {
		st.ElementsPerSec = st.Elements / st.ModelSeconds
	}
	if st.Cycles > 0 {
		st.ElementsPerCyclePer.CU = st.Elements / st.Cycles / float64(d.CUs)
		st.ElementsPerCyclePer.StreamCore = st.Elements / st.Cycles / float64(d.StreamCores)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
