package trigene

import (
	"context"
	"fmt"
	"time"

	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/obs"
	"trigene/internal/permtest"
)

// Distributed permutation testing. A permutation test is a flat index
// space — permutation p's relabeling is keyed by the seed and its
// absolute index — so it tiles exactly like a search: the cluster
// shards [0, P) into contiguous ranges, workers evaluate each range
// with the bit-plane kernel (Session.PermutationSlice), and the
// coordinator sums hit counts (MergePerms) into p-values bit-exact with
// a single-node run.

// PermSpec is the wire form of a cluster permutation-test job: the
// candidate combinations to test, the relabeling count, and the seed.
// It rides inside SearchSpec (whose Objective and Workers fields keep
// their meaning) under the stable "perm" key.
type PermSpec struct {
	// SNPs holds the candidate combinations (each strictly increasing,
	// order in [2, 7]) — typically a Report's top-K.
	SNPs [][]int `json:"snps"`
	// Permutations is the relabeling count (0 = default 1000).
	Permutations int `json:"permutations,omitempty"`
	// Seed fixes the RNG seed; permutation p is keyed by Seed and its
	// absolute index, which is what makes any tiling merge bit-exactly.
	Seed int64 `json:"seed,omitempty"`
}

// validate checks the dataset-independent invariants.
func (sp *PermSpec) validate() error {
	if len(sp.SNPs) == 0 {
		return fmt.Errorf("trigene: empty PermSpec: no candidate combinations")
	}
	if sp.Permutations < 0 {
		return fmt.Errorf("trigene: negative permutation count %d", sp.Permutations)
	}
	for _, snps := range sp.SNPs {
		if len(snps) < 2 || len(snps) > contingency.MaxOrder {
			return fmt.Errorf("trigene: candidate %v has order %d, want [2,%d]", snps, len(snps), contingency.MaxOrder)
		}
		for i, v := range snps {
			if v < 0 || (i > 0 && snps[i-1] >= v) {
				return fmt.Errorf("trigene: candidate %v is not strictly increasing", snps)
			}
		}
	}
	return nil
}

// Validate checks the spec loudly against a dataset of the given SNP
// count — the submit-time validation cluster coordinators and the CLIs
// run so a bad job fails at the door, not on the first worker. A snps
// of 0 checks only the dataset-independent invariants.
func (sp PermSpec) Validate(snps int) error {
	if err := sp.validate(); err != nil {
		return err
	}
	if snps > 0 {
		for _, c := range sp.SNPs {
			if c[len(c)-1] >= snps {
				return fmt.Errorf("trigene: candidate %v out of range for %d SNPs", c, snps)
			}
		}
	}
	return nil
}

// PermutationCount resolves the spec's relabeling count (default 1000,
// matching WithPermutations' default) — the total permutation index
// space a coordinator shards into tiles.
func (sp *PermSpec) PermutationCount() int { return sp.permutations() }

// permutations resolves the spec's relabeling count (default 1000,
// matching WithPermutations' default).
func (sp *PermSpec) permutations() int {
	if sp.Permutations == 0 {
		return 1000
	}
	return sp.Permutations
}

// PermScores is the wire-safe outcome of one permutation range — what
// a cluster worker posts per tile. Ranges over disjoint permutation
// index sets merge with MergePerms; because every range re-derives the
// same observed scores and keys relabelings by absolute permutation
// index, the merged hit counts are bit-exact with a single-node run
// over the union.
type PermScores struct {
	// SNPs echoes the candidate combinations, in order; Observed and
	// Hits have this length.
	SNPs [][]int `json:"snps"`
	// Objective names the criterion the scores were computed under.
	Objective string `json:"objective"`
	// Seed is the test's RNG seed (merges must agree on it).
	Seed int64 `json:"seed"`
	// Stream is the version of the permutation stream the range was
	// drawn from: which relabeling permutation p of a seed is. It is a
	// constant of the build that drew it, not a setting; absent on the
	// wire means 1, the stream of releases that did not write the field.
	Stream int `json:"stream,omitempty"`
	// Offset and Count delimit the evaluated permutation index range
	// [Offset, Offset+Count).
	Offset int `json:"offset"`
	Count  int `json:"count"`
	// Observed holds each candidate's score on the real phenotypes.
	Observed []float64 `json:"observed"`
	// Hits counts, per candidate, the permutations in the range scoring
	// as good or better than Observed.
	Hits []int `json:"hits"`
}

// PermStreamError reports permutation scores drawn from another stream
// version than this build's — posted by a worker of another release, or
// replayed from a journal one wrote. Their hit counts are draws of
// different relabelings, so they are refused, never summed.
type PermStreamError struct {
	Got, Want int
}

func (e *PermStreamError) Error() string {
	return fmt.Sprintf("trigene: perm scores come from permutation stream %d; this build draws stream %d and cannot merge them",
		e.Got, e.Want)
}

// ValidateShape checks internal consistency of one tile's scores and
// that they come from this build's permutation stream — the door check
// a coordinator runs on a posted or replayed range before accounting
// its tile done, so a malformed or foreign body never corrupts the
// merge.
func (ps *PermScores) ValidateShape() error { return ps.validateShape() }

// validateShape checks internal consistency of one tile's scores.
func (ps *PermScores) validateShape() error {
	stream := ps.Stream
	if stream == 0 {
		stream = 1
	}
	if stream != permtest.Stream {
		return &PermStreamError{Got: stream, Want: permtest.Stream}
	}
	if len(ps.SNPs) == 0 {
		return fmt.Errorf("trigene: perm scores carry no candidates")
	}
	if len(ps.Observed) != len(ps.SNPs) || len(ps.Hits) != len(ps.SNPs) {
		return fmt.Errorf("trigene: perm scores shape mismatch: %d candidates, %d observed, %d hits",
			len(ps.SNPs), len(ps.Observed), len(ps.Hits))
	}
	if ps.Offset < 0 || ps.Count < 1 {
		return fmt.Errorf("trigene: perm scores cover invalid range [%d,%d)", ps.Offset, ps.Offset+ps.Count)
	}
	for i, h := range ps.Hits {
		if h < 0 || h > ps.Count {
			return fmt.Errorf("trigene: candidate %d hit count %d outside [0,%d]", i, h, ps.Count)
		}
	}
	return nil
}

// MergePerms combines the per-range scores of a distributed permutation
// test: hit counts and range sizes sum; candidates, objective, seed and
// observed scores must agree bit-for-bit across ranges (they are
// re-derived deterministically by every worker, so a mismatch means the
// ranges came from different tests), and every range must come from
// this build's permutation stream (a *PermStreamError otherwise). The
// result covers the union of the input ranges.
func MergePerms(scores ...*PermScores) (*PermScores, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("trigene: MergePerms needs at least one range")
	}
	base := scores[0]
	if base == nil {
		return nil, fmt.Errorf("trigene: MergePerms got a nil range")
	}
	if err := base.validateShape(); err != nil {
		return nil, err
	}
	out := &PermScores{
		SNPs:      base.SNPs,
		Objective: base.Objective,
		Seed:      base.Seed,
		Stream:    base.Stream,
		Offset:    base.Offset,
		Observed:  base.Observed,
		Hits:      make([]int, len(base.Hits)),
	}
	for _, sc := range scores {
		if sc == nil {
			return nil, fmt.Errorf("trigene: MergePerms got a nil range")
		}
		if sc != base {
			if err := sc.validateShape(); err != nil {
				return nil, err
			}
		}
		if sc.Objective != base.Objective || sc.Seed != base.Seed || len(sc.SNPs) != len(base.SNPs) {
			return nil, fmt.Errorf("trigene: cannot merge %s/seed %d ranges with %s/seed %d",
				sc.Objective, sc.Seed, base.Objective, base.Seed)
		}
		for i, snps := range sc.SNPs {
			if len(snps) != len(base.SNPs[i]) {
				return nil, fmt.Errorf("trigene: candidate %d differs between ranges", i)
			}
			for d, v := range snps {
				if v != base.SNPs[i][d] {
					return nil, fmt.Errorf("trigene: candidate %d differs between ranges", i)
				}
			}
			if sc.Observed[i] != base.Observed[i] {
				return nil, fmt.Errorf("trigene: candidate %d observed score %v != %v across ranges (different datasets?)",
					i, sc.Observed[i], base.Observed[i])
			}
		}
		if sc.Offset < out.Offset {
			out.Offset = sc.Offset
		}
		out.Count += sc.Count
		for i, h := range sc.Hits {
			out.Hits[i] += h
		}
	}
	return out, nil
}

// PermCandidate is one candidate's outcome in a PermInfo block.
type PermCandidate struct {
	// SNPs is the tested combination.
	SNPs []int `json:"snps"`
	// Observed is its score on the real phenotypes.
	Observed float64 `json:"observed"`
	// AsGoodOrBetter counts permutations tying or beating Observed.
	AsGoodOrBetter int `json:"asGoodOrBetter"`
	// PValue is (AsGoodOrBetter + 1) / (Permutations + 1).
	PValue float64 `json:"pValue"`
}

// PermInfo is the Report's record of a permutation test — attached by
// cluster permutation jobs (the coordinator merges tile hit counts and
// finalizes p-values here). It travels the JSON wire under the stable
// "perm" key and the first block present carries through MergeReports.
type PermInfo struct {
	// Permutations is the relabeling count behind every p-value.
	Permutations int `json:"permutations"`
	// Seed is the test's RNG seed.
	Seed int64 `json:"seed"`
	// Stream is the version of the permutation stream behind the
	// p-values (absent = 1): the same seed gives different draws, and
	// so slightly different p-values, under different versions.
	Stream int `json:"stream,omitempty"`
	// Objective names the scoring criterion.
	Objective string `json:"objective"`
	// Tiles is how many permutation ranges the cluster merged (1 for a
	// single-node run).
	Tiles int `json:"tiles,omitempty"`
	// Results holds one entry per tested candidate, in request order.
	Results []PermCandidate `json:"results"`
}

// permInfo finalizes merged range scores into the Report block.
func permInfo(merged *PermScores, permutations, tiles int) *PermInfo {
	info := &PermInfo{
		Permutations: permutations,
		Seed:         merged.Seed,
		Stream:       merged.Stream,
		Objective:    merged.Objective,
		Tiles:        tiles,
		Results:      make([]PermCandidate, len(merged.SNPs)),
	}
	for i, snps := range merged.SNPs {
		info.Results[i] = PermCandidate{
			SNPs:           snps,
			Observed:       merged.Observed[i],
			AsGoodOrBetter: merged.Hits[i],
			PValue:         float64(merged.Hits[i]+1) / float64(permutations+1),
		}
	}
	return info
}

// FinalizePerms turns the merged range scores of a distributed
// permutation job into the Report the job answers with. The merged
// ranges must cover the spec's permutation index space exactly — a
// hole or overlap means a tile was lost or double-counted — and the
// resulting Report carries only the Perm block with finalized
// p-values. tiles records how many ranges were merged.
func FinalizePerms(spec *PermSpec, merged *PermScores, tiles int) (*Report, error) {
	perms := spec.permutations()
	if merged.Offset != 0 || merged.Count != perms {
		return nil, fmt.Errorf("trigene: merged permutation ranges cover [%d,%d), want [0,%d)",
			merged.Offset, merged.Offset+merged.Count, perms)
	}
	return &Report{
		Backend:   "cpu",
		Objective: merged.Objective,
		Perm:      permInfo(merged, perms, tiles),
	}, nil
}

// permConfig validates the option set of a permutation-test call and
// resolves the shared knobs. The rejections mirror Search's contract:
// permutation tests re-score fixed candidates, so search-shaping
// options do not apply.
func (s *Session) permConfig(opts []Option, orders func() []int) (*searchConfig, error) {
	cfg, err := newSearchConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.shard != nil {
		return nil, fmt.Errorf("trigene: permutation tests cannot shard; use WithCluster to distribute them")
	}
	if _, isCPU := cfg.backend.(cpuBackend); !isCPU {
		return nil, fmt.Errorf("trigene: permutation tests run on the host; WithBackend does not apply")
	}
	if cfg.approachSet {
		return nil, fmt.Errorf("trigene: permutation tests re-score fixed candidates; WithApproach does not apply")
	}
	if cfg.screen != nil {
		return nil, fmt.Errorf("trigene: permutation tests re-score fixed candidates; WithScreen does not apply")
	}
	if cfg.topK != 1 {
		return nil, fmt.Errorf("trigene: permutation tests score the candidates given; WithTopK does not apply")
	}
	if cfg.orderSet {
		for _, k := range orders() {
			if cfg.order != k {
				return nil, fmt.Errorf("trigene: order %d conflicts with a %d-SNP candidate (the order is inferred from the candidates)", cfg.order, k)
			}
		}
	}
	return cfg, nil
}

// permtestConfig lowers a validated call configuration into the kernel
// Config.
func (s *Session) permtestConfig(ctx context.Context, cfg *searchConfig) (permtest.Config, error) {
	obj, _, err := cfg.objective(s.Samples())
	if err != nil {
		return permtest.Config{}, err
	}
	return permtest.Config{
		Permutations: cfg.permutations,
		Seed:         cfg.seed,
		Workers:      cfg.workers,
		Objective:    obj,
		Context:      ctx,
	}, nil
}

// candidatePlanes returns what the permutation kernel reads of the
// dataset: the genotype planes of the candidates' SNPs and no others.
func (s *Session) candidatePlanes(candidates [][]int) *dataset.SNPPlanes {
	var snps []int
	for _, c := range candidates {
		snps = append(snps, c...)
	}
	return s.store.SNPPlanes(snps)
}

// preparedPerm is a candidate set prepared for the permutation kernel,
// under the key permPrepared files it by.
type preparedPerm struct {
	key  string
	prep *permtest.Prepared
}

// permPrepared returns the candidates prepared for the permutation
// kernel under the named objective: the session's last prepared set when
// it holds the same candidates under the same objective, else a new one,
// which it keeps. A cluster worker runs one range per tile of a job on
// one session, and the cell lists and observed scores are the same for
// every tile.
func (s *Session) permPrepared(candidates [][]int, objective string, pc permtest.Config) (*permtest.Prepared, error) {
	key := fmt.Sprint(objective, candidates)
	if last := s.perm.Load(); last != nil && last.key == key {
		return last.prep, nil
	}
	prep, err := permtest.Prepare(s.candidatePlanes(candidates), candidates, pc)
	if err != nil {
		return nil, err
	}
	s.perm.Store(&preparedPerm{key: key, prep: prep})
	return prep, nil
}

// PermutationTestAll permutation-tests a whole candidate set —
// typically a Report's top-K — at once on the bit-plane kernel, sharing
// each relabeled phenotype across all candidates so it is drawn once
// instead of once per candidate. Results are in candidate order and
// bit-identical to separate PermutationTest calls with the same
// options. Relevant options: WithPermutations, WithSeed, WithObjective,
// WithWorkers, WithCluster (which distributes the permutation range
// over a cluster) and WithMetrics.
func (s *Session) PermutationTestAll(ctx context.Context, candidates [][]int, opts ...Option) ([]*PermResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := s.permConfig(opts, func() []int {
		orders := make([]int, len(candidates))
		for i, c := range candidates {
			orders[i] = len(c)
		}
		return orders
	})
	if err != nil {
		return nil, err
	}
	if cfg.remote != nil {
		return s.permRemote(ctx, cfg, candidates)
	}
	pc, err := s.permtestConfig(ctx, cfg)
	if err != nil {
		return nil, err
	}
	_, objName, err := cfg.objective(s.Samples())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	prep, err := s.permPrepared(candidates, objName, pc)
	if err != nil {
		return nil, err
	}
	rr, err := prep.Range(0, cfg.permCount(), pc)
	if err != nil {
		return nil, err
	}
	observePerm(cfg.metrics, rr, time.Since(start))
	return rr.Results(), nil
}

// PermutationSlice evaluates permutation indices [offset, offset+count)
// only — the entry point cluster workers execute for a permutation
// job's tiles — and returns the wire-safe range scores. Relevant
// options: WithSeed, WithObjective (both must match the job),
// WithWorkers, WithMetrics. Per-index keying makes MergePerms over any
// tiling bit-exact with the untiled run.
func (s *Session) PermutationSlice(ctx context.Context, candidates [][]int, offset, count int, opts ...Option) (*PermScores, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := s.permConfig(opts, func() []int {
		orders := make([]int, len(candidates))
		for i, c := range candidates {
			orders[i] = len(c)
		}
		return orders
	})
	if err != nil {
		return nil, err
	}
	if cfg.remote != nil {
		return nil, fmt.Errorf("trigene: PermutationSlice is the worker-side primitive; WithCluster does not apply")
	}
	pc, err := s.permtestConfig(ctx, cfg)
	if err != nil {
		return nil, err
	}
	_, objName, err := cfg.objective(s.Samples())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	prep, err := s.permPrepared(candidates, objName, pc)
	if err != nil {
		return nil, err
	}
	rr, err := prep.Range(offset, count, pc)
	if err != nil {
		return nil, err
	}
	observePerm(cfg.metrics, rr, time.Since(start))
	return &PermScores{
		SNPs:      candidates,
		Objective: objName,
		Seed:      cfg.seed,
		Stream:    permtest.Stream,
		Offset:    offset,
		Count:     count,
		Observed:  rr.Observed,
		Hits:      rr.Hits,
	}, nil
}

// permRemote ships a permutation test to a WithCluster executor and
// lowers the returned Report.Perm block back into per-candidate
// results.
func (s *Session) permRemote(ctx context.Context, cfg *searchConfig, candidates [][]int) ([]*PermResult, error) {
	exec, ok := cfg.remote.(PermExecutor)
	if !ok {
		return nil, fmt.Errorf("trigene: cluster %s cannot run permutation jobs (no ExecutePerm)", cfg.remote.Name())
	}
	spec := cfg.spec()
	perms := cfg.permCount()
	snps := make([][]int, len(candidates))
	for i, c := range candidates {
		snps[i] = append([]int(nil), c...)
	}
	spec.Perm = &PermSpec{SNPs: snps, Permutations: perms, Seed: cfg.seed}
	spec.Order = 0
	spec.TopK = 0
	rep, err := exec.ExecutePerm(ctx, s.Matrix(), spec)
	if err != nil {
		return nil, fmt.Errorf("trigene: cluster %s: %w", cfg.remote.Name(), err)
	}
	if rep == nil || rep.Perm == nil {
		return nil, fmt.Errorf("trigene: cluster %s returned no permutation results", cfg.remote.Name())
	}
	if len(rep.Perm.Results) != len(candidates) {
		return nil, fmt.Errorf("trigene: cluster %s returned %d results for %d candidates",
			cfg.remote.Name(), len(rep.Perm.Results), len(candidates))
	}
	out := make([]*PermResult, len(rep.Perm.Results))
	for i, r := range rep.Perm.Results {
		out[i] = &PermResult{
			Observed:       r.Observed,
			AsGoodOrBetter: r.AsGoodOrBetter,
			Permutations:   rep.Perm.Permutations,
			PValue:         r.PValue,
		}
	}
	return out, nil
}

// permCount resolves the relabeling count of a permutation test
// (default 1000).
func (c *searchConfig) permCount() int {
	if c.permutations == 0 {
		return 1000
	}
	return c.permutations
}

// observePerm records the permutation-test counters: relabelings
// evaluated, candidates sharing them, the table rows scored against
// those a full score would have taken, and the wall time. A nil
// registry is a no-op.
func observePerm(reg *obs.Registry, rr *permtest.RangeResult, d time.Duration) {
	reg.Counter("trigene_perm_permutations_total", "Phenotype relabelings evaluated by permutation tests.").Add(int64(rr.Count))
	reg.Counter("trigene_perm_candidates_total", "Candidate combinations scored by permutation tests.").Add(int64(len(rr.Hits)))
	reg.Counter("trigene_perm_rows_counted_total", "Contingency-table rows permutation tests scored; K2 stops scoring a group of eight tables once none can tie or beat the observed score.").Add(rr.Rows.Counted)
	reg.Counter("trigene_perm_rows_total", "Contingency-table rows permutation tests would score without stopping early.").Add(rr.Rows.Total)
	reg.Histogram("trigene_perm_seconds", "Permutation test wall time in seconds.", obs.DurationBuckets).Observe(d.Seconds())
}
