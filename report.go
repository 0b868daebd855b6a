package trigene

import (
	"fmt"
	"strconv"
	"time"

	"trigene/internal/score"
	"trigene/internal/topk"
)

// SearchCandidate is a scored SNP combination of any interaction
// order, the order-generic currency of the Report type.
type SearchCandidate struct {
	// SNPs holds the strictly increasing SNP indices of the
	// combination (length = Report.Order).
	SNPs []int `json:"snps"`
	// Score is the candidate's value under the Report's objective.
	Score float64 `json:"score"`
}

// Shard space units: what the ranks in ShardInfo.Lo/Hi count.
const (
	// ShardSpaceRanks: colexicographic combination ranks (CPU orders 4
	// to 7, gpusim, baseline, hetero; CPU order 2 before it walked block
	// pairs).
	ShardSpaceRanks = "combination-ranks"
	// ShardSpaceBlocks: block-triple ranks at blocks of 4 SNPs, what
	// Reports of the removed CPU V3/V4 carry; named so that they refuse to
	// merge with ShardSpaceFusedBlocks ones. Block triples at another
	// block size BS are named ShardSpaceBlocks + "-bs" + BS.
	ShardSpaceBlocks = "block-triples"
	// ShardSpaceFusedBlocks: block-triple ranks at blocks of 8 SNPs, one
	// lane group: every CPU order-3 shard (V3F/V4F).
	ShardSpaceFusedBlocks = ShardSpaceBlocks + "-bs8"
)

// blockSpaceName names the space of block tuples of the given order cut
// at blocks of bs SNPs: "block-triples-bs8" at order 3, "block-pairs-bs8"
// at order 2.
func blockSpaceName(order, bs int) string {
	unit := ShardSpaceBlocks
	if order == 2 {
		unit = "block-pairs"
	}
	return unit + "-bs" + strconv.Itoa(bs)
}

// ShardInfo records which slice of the scheduler's work space a
// sharded Report covers.
type ShardInfo struct {
	// Index and Count identify the shard: slice Index of Count.
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo and Hi are the covered ranks [Lo, Hi) in Space units.
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Space names the rank units: ShardSpaceFusedBlocks on a CPU
	// order-3 shard, "block-pairs-bs8" (block pairs of 8 SNPs) on a CPU
	// order-2 one, ShardSpaceRanks on the others.
	Space string `json:"space"`
}

// HeteroInfo carries the heterogeneous backend's split accounting.
type HeteroInfo struct {
	// CPUFraction is the fraction of the evaluated ranks the CPU
	// engine scored; the rest ran on the simulated GPU. On the default
	// work-stealing run it is the realized split, not a configured
	// one.
	CPUFraction float64 `json:"cpuFraction"`
	// ModeledCombinedGElems is the device pair's projected joint
	// throughput in G elements/s (the paper's Section V-D estimate).
	ModeledCombinedGElems float64 `json:"modeledCombinedGElems"`
}

// TraceSpan is one timed phase of a search, offset-based so spans
// from one trace order and nest without wall-clock comparisons.
type TraceSpan struct {
	// Name identifies the phase: "encode", "search" or "merge"; a
	// screened search adds "screen", "subset", "stage2" and
	// "seeded" inside "search".
	Name string `json:"name"`
	// StartNs is the span's start offset from the trace origin (the
	// Search call's entry) in nanoseconds.
	StartNs int64 `json:"startNs"`
	// DurationNs is the span's length in nanoseconds.
	DurationNs int64 `json:"durationNs"`
}

// TraceInfo is the per-search phase timeline attached to a Report by
// WithTrace: where the wall time of the call went — encoding (building
// or loading the bit-plane representations the approach consumes), the
// search itself, and shard merging. Spans are recorded by the session around the
// phases it drives; a backend's internal parallelism is summarized by
// the single "search" span, not expanded.
type TraceInfo struct {
	// Spans holds the recorded phases in start order.
	Spans []TraceSpan `json:"spans"`
}

// Report is the unified outcome of Session.Search: every backend and
// every interaction order produces this one shape.
type Report struct {
	// Backend names the engine that ran the search ("cpu",
	// "gpusim:GN1", "baseline", "hetero").
	Backend string
	// Approach is the pipeline variant within the backend: "V3F"/"V4F"
	// (cpu at order 3, "V2" at other orders), "V1".."V4"/"V4F" (gpusim
	// kernels), "mpi3snp", "V2+V4" (hetero).
	Approach string
	// Objective is the ranking criterion ("k2", "mi" or "gini").
	Objective string
	// Order is the interaction order searched.
	Order int

	// Best is the winning candidate; ties are broken by lexicographic
	// SNP order, so results are deterministic on every backend.
	Best SearchCandidate
	// TopK holds up to WithTopK candidates in best-first order.
	TopK []SearchCandidate

	// Combinations is the number of SNP combinations evaluated (the
	// shard's share when sharded).
	Combinations int64
	// Elements is the paper's work metric: Combinations x samples.
	Elements float64
	// Duration is the host wall time of the search phase.
	Duration time.Duration
	// ElementsPerSec is the backend's characteristic throughput:
	// host-measured for cpu/baseline/hetero, modeled for gpusim.
	ElementsPerSec float64

	// Shard is set when the search covered one shard of the space.
	Shard *ShardInfo
	// GPU carries the simulator's modeled execution statistics when a
	// simulated device participated (gpusim and hetero backends).
	GPU *GPUStats
	// Hetero is set by the heterogeneous backend.
	Hetero *HeteroInfo
	// Screen is the audit record of a screened search (WithScreen):
	// what stage 1 scanned, what survived, the cut line, and the stage
	// timings — or a budget's decision to decline; nil on unscreened
	// runs.
	Screen *ScreenInfo
	// Perm is the merged outcome of a cluster permutation-test job
	// (per-candidate observed scores, hit counts and p-values); nil on
	// search Reports.
	Perm *PermInfo
	// Trace is the phase timeline recorded under WithTrace; nil
	// otherwise.
	Trace *TraceInfo

	// obj preserves the objective's ordering for MergeReports.
	obj score.Objective
	// topK is the requested candidate cap.
	topK int
}

// TopKLimit is the candidate cap the Report was ranked under: the
// search's WithTopK depth, or for a merge the deepest of its inputs'. It
// is 0 on a Report decoded from JSON written before the cap was carried.
func (r *Report) TopKLimit() int { return r.topK }

// betterCandidate is the deterministic candidate order shared by every
// backend: objective first, then lexicographic SNPs.
func betterCandidate(obj score.Objective, a, b SearchCandidate) bool {
	if a.Score != b.Score {
		return obj.Better(a.Score, b.Score)
	}
	for i := range a.SNPs {
		if i >= len(b.SNPs) {
			return false
		}
		if a.SNPs[i] != b.SNPs[i] {
			return a.SNPs[i] < b.SNPs[i]
		}
	}
	return false
}

// candidateCmp builds the bounded-insert comparator for one objective.
func candidateCmp(obj score.Objective) func(a, b SearchCandidate) bool {
	return func(a, b SearchCandidate) bool { return betterCandidate(obj, a, b) }
}

// MergeReports combines the Reports of a sharded search (one per
// shard, any backend mix) into one Report equivalent to the unsharded
// run: top-K candidates are re-ranked under the shared objective and
// the work statistics are summed. All inputs must come from
// Session.Search calls with the same order and objective. Reports
// that crossed a serialization boundary (a coordinator collecting
// JSON from shard machines) merge too: the candidate ordering is
// rebuilt from the Objective name.
func MergeReports(reports ...*Report) (*Report, error) {
	mergeStart := time.Now()
	if len(reports) == 0 {
		return nil, fmt.Errorf("trigene: MergeReports needs at least one report")
	}
	base := reports[0]
	if base == nil {
		return nil, fmt.Errorf("trigene: MergeReports got a nil report")
	}
	obj := base.obj
	if obj == nil {
		// Deserialized report: only the objective's ordering is
		// needed, so any table size works.
		o, err := score.New(base.Objective, 1)
		if err != nil {
			return nil, fmt.Errorf("trigene: MergeReports: report carries no usable objective: %w", err)
		}
		obj = o
	}
	k := 0
	space := ""
	for _, r := range reports {
		if r == nil {
			return nil, fmt.Errorf("trigene: MergeReports got a nil report")
		}
		if r.Order != base.Order || r.Objective != base.Objective {
			return nil, fmt.Errorf("trigene: cannot merge order-%d %s report with order-%d %s",
				r.Order, r.Objective, base.Order, base.Objective)
		}
		// Shards only union back to the full space when they sliced the
		// SAME space: a rank shard (gpusim, order 4, ...) and a
		// block-triple shard (V4F) of the same (index, count) cover
		// different triples, and so do block-triple shards cut at
		// different block sizes (the removed V4's 4 SNPs, V4F's 8), so
		// mixing them would silently
		// double-count some combinations and drop others. (One way to
		// mix them by accident: pinning an approach for one shard of a
		// search but not for another.)
		if r.Shard != nil && r.Shard.Space != "" {
			if space == "" {
				space = r.Shard.Space
			} else if r.Shard.Space != space {
				return nil, fmt.Errorf("trigene: cannot merge a %s shard with a %s shard (the shards sliced different spaces; run every shard with the same approach)",
					r.Shard.Space, space)
			}
		}
		if r.topK > k {
			k = r.topK
		}
	}
	if k == 0 {
		// Hand-built reports (or ones from a codec predating the
		// "topKLimit" wire field) carry no requested cap; the deepest
		// candidate list present is the best available stand-in.
		for _, r := range reports {
			if len(r.TopK) > k {
				k = len(r.TopK)
			}
		}
	}
	out := &Report{
		Backend:   base.Backend,
		Approach:  base.Approach,
		Objective: base.Objective,
		Order:     base.Order,
		obj:       obj,
		topK:      k,
	}
	// Shards of one screened job run the identical deterministic stage 1
	// (or carry the coordinator's assembled record), so the first screen
	// audit present speaks for all.
	for _, r := range reports {
		if r.Screen != nil {
			out.Screen = r.Screen
			break
		}
	}
	// And for permutation results: the block is assembled once by the
	// coordinator from already-merged hit counts, so the first present
	// carries over.
	for _, r := range reports {
		if r.Perm != nil {
			out.Perm = r.Perm
			break
		}
	}
	cmp := candidateCmp(obj)
	for _, r := range reports {
		for _, c := range r.TopK {
			out.TopK = topk.Insert(out.TopK, c, k, cmp)
		}
		out.Combinations += r.Combinations
		out.Elements += r.Elements
		out.Duration += r.Duration
	}
	if len(out.TopK) > 0 {
		out.Best = out.TopK[0]
	}
	// Keep the throughput semantics of the inputs: gpusim shards carry
	// modeled device time (host wall time would be the simulator's own
	// cost), everything else is host-measured.
	modeled, allModeled := 0.0, true
	for _, r := range reports {
		if r.GPU == nil {
			allModeled = false
			break
		}
		modeled += r.GPU.ModelSeconds
	}
	switch {
	case allModeled && modeled > 0:
		out.ElementsPerSec = out.Elements / modeled
	case !allModeled && out.Duration > 0:
		out.ElementsPerSec = out.Elements / out.Duration.Seconds()
	}
	// Like Plan, the first trace present carries over (shards of one
	// traced job record the same phases); the merge's own cost is
	// appended as a "merge" span starting where the last span ended.
	for _, r := range reports {
		if r.Trace != nil {
			spans := append([]TraceSpan(nil), r.Trace.Spans...)
			last := int64(0)
			for _, sp := range spans {
				if end := sp.StartNs + sp.DurationNs; end > last {
					last = end
				}
			}
			spans = append(spans, TraceSpan{
				Name:       "merge",
				StartNs:    last,
				DurationNs: int64(time.Since(mergeStart)),
			})
			out.Trace = &TraceInfo{Spans: spans}
			break
		}
	}
	return out, nil
}
