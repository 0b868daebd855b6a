package trigene

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"trigene/internal/combin"
	"trigene/internal/engine"
	"trigene/internal/obs"
	"trigene/internal/sched"
	"trigene/internal/score"
	"trigene/internal/topk"
)

// Two-stage screened search. Stage 1 scans all C(M,2) pairs with the
// cheap pair kernel (four cells counted, five derived), charging each
// pair's score to both participating SNPs; the top-S SNPs by best
// participating pair score survive (optionally with a seed list of top
// pairs). Stage 2 runs the full triple engine only over the survivors
// — a C(S,3) space instead of C(M,3) — plus, in seeded mode, every
// (seed pair, third SNP) extension outside it. The pruning decision is
// recorded as Report.Screen so results stay auditable.

// ScreenSpec configures the screen (WithScreen). Exactly how the
// survivor budget is set:
//
//   - MaxSurvivors > 0 keeps the top-S SNPs deterministically;
//   - BudgetSeconds > 0 prices the search from its own run: the
//     exhaustive C(M,k) search starts, and at its first progress report
//     at or after 5 % of the budget it projects its wall time. If that
//     fits, it runs to the end (Report.Screen.Declined). If not, it is
//     cancelled, stage 1 runs, and S is the largest survivor count whose
//     C(S,k) stage 2, at the combinations/s the exhaustive search
//     measured, fits what that search and stage 1 left of the budget: at
//     least max(3, k), capped at MaxSurvivors when that is set too. At
//     order 2 it always declines (stage 1 is the exhaustive pair
//     search). Only the cpu backend reports progress, so other backends
//     and sharded searches refuse a budget (BudgetScreenError);
//   - Survivors/Seeds pin the stage-2 space outright, skipping stage 1
//     (the form cluster coordinators use for stage-2 grants).
//
// SeedPairs additionally keeps the top pairs of the scan as seeds and
// extends each by every third SNP, so a strong pair whose partners
// were pruned still surfaces (order-3 searches only).
type ScreenSpec struct {
	// MaxSurvivors is the survivor budget S, or with BudgetSeconds the
	// cap on the S the budget sizes (0 = no cap).
	MaxSurvivors int `json:"maxSurvivors,omitempty"`
	// SeedPairs is how many top pairs to keep as stage-2 seeds (0 =
	// none).
	SeedPairs int `json:"seedPairs,omitempty"`
	// BudgetSeconds is the end-to-end time budget the screen is sized
	// for (0 = none), priced by the rate the search itself measures on
	// this host. The decision therefore depends on the host and its load:
	// a bit-exact rerun pins MaxSurvivors to the Report's
	// Screen.Survivors. The budget sizes the screen; it does not bound
	// the wall time.
	BudgetSeconds float64 `json:"budgetSeconds,omitempty"`
	// Survivors pins the survivor set directly (strictly increasing SNP
	// indices); stage 1 is skipped. Set by cluster stage-2 grants.
	Survivors []int `json:"survivors,omitempty"`
	// Seeds pins the seed pair list (each {i, j} with i < j), used with
	// Survivors.
	Seeds [][2]int `json:"seeds,omitempty"`
}

// pinned reports whether the spec carries a pre-computed stage-2 space.
func (sp *ScreenSpec) pinned() bool { return len(sp.Survivors) > 0 }

// validate checks the m-independent invariants (WithScreen and submit
// validation share it).
func (sp *ScreenSpec) validate() error {
	if sp.MaxSurvivors < 0 {
		return fmt.Errorf("trigene: negative screen survivor budget %d", sp.MaxSurvivors)
	}
	if sp.SeedPairs < 0 {
		return fmt.Errorf("trigene: negative screen seed count %d", sp.SeedPairs)
	}
	if sp.BudgetSeconds < 0 {
		return fmt.Errorf("trigene: negative screen budget %gs", sp.BudgetSeconds)
	}
	if sp.MaxSurvivors == 0 && sp.BudgetSeconds == 0 && !sp.pinned() {
		return fmt.Errorf("trigene: empty ScreenSpec: set MaxSurvivors, BudgetSeconds or Survivors")
	}
	for i, p := range sp.Seeds {
		if p[0] < 0 || p[0] >= p[1] {
			return fmt.Errorf("trigene: invalid screen seed pair (%d,%d)", p[0], p[1])
		}
		_ = i
	}
	return nil
}

// validateFor checks the spec against a concrete dataset of m SNPs.
func (sp *ScreenSpec) validateFor(m int) error {
	if err := sp.validate(); err != nil {
		return err
	}
	if sp.MaxSurvivors > m {
		return fmt.Errorf("trigene: screen survivor budget %d exceeds the dataset's %d SNPs", sp.MaxSurvivors, m)
	}
	for i, c := range sp.Survivors {
		if c < 0 || c >= m {
			return fmt.Errorf("trigene: pinned survivor %d out of range [0,%d)", c, m)
		}
		if i > 0 && sp.Survivors[i-1] >= c {
			return fmt.Errorf("trigene: pinned survivors must be strictly increasing (%d after %d)", c, sp.Survivors[i-1])
		}
	}
	for _, p := range sp.Seeds {
		if p[1] >= m {
			return fmt.Errorf("trigene: screen seed pair (%d,%d) out of range for %d SNPs", p[0], p[1], m)
		}
	}
	return nil
}

// Validate checks the spec loudly against a dataset of the given SNP
// count — the submit-time validation cluster coordinators and the CLIs
// run so a bad screen fails at the door, not on the first worker. A
// snps of 0 checks only the dataset-independent invariants (negative
// budgets, malformed seed pairs, an empty spec).
func (sp ScreenSpec) Validate(snps int) error {
	if snps > 0 {
		return sp.validateFor(snps)
	}
	return sp.validate()
}

// WithScreen turns Session.Search into a two-stage screened search
// under the given spec. A permissive screen (MaxSurvivors = M) keeps
// every SNP and reproduces the unscreened result bit-exactly; smaller
// budgets trade exhaustiveness for the C(M,3)→C(S,3) collapse, with
// the decision audited in Report.Screen.
func WithScreen(spec ScreenSpec) Option {
	return func(c *searchConfig) error {
		if err := spec.validate(); err != nil {
			return err
		}
		sc := spec
		sc.Survivors = append([]int(nil), spec.Survivors...)
		sc.Seeds = append([][2]int(nil), spec.Seeds...)
		c.screen = &sc
		return nil
	}
}

// ScreenInfo is the Report's record of a screened search: what stage 1
// scanned, what survived, and where the time went. It travels the JSON
// wire under the stable "screen" key and is carried through
// MergeReports (shards of one screened job run the identical
// deterministic stage 1).
type ScreenInfo struct {
	// PairsScanned is the number of pairs stage 1 scored (0 when the
	// screen was declined or the stage-2 space was pinned).
	PairsScanned int64 `json:"pairsScanned"`
	// Survivors is the survivor count S.
	Survivors int `json:"survivors"`
	// SeedPairs is the seed list length of the seeded mode.
	SeedPairs int `json:"seedPairs,omitempty"`
	// Threshold is the best-participating-pair score of the weakest
	// survivor — the pruning cut line.
	Threshold float64 `json:"threshold"`
	// Stage1Ns and Stage2Ns split the wall time between the pair scan
	// (with survivor selection) and everything after it: Stage2Ns covers
	// gathering the survivor columns, the triple search over them and
	// the seeded extension — the "subset", "stage2" and "seeded" spans
	// of a traced Report.
	Stage1Ns int64 `json:"stage1Ns"`
	Stage2Ns int64 `json:"stage2Ns"`
	// Declined records a budget decision not to screen (the search ran
	// exhaustively); Reason says why, and on a budget screen names the
	// measured rate, the projection and the split.
	Declined bool   `json:"declined,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// ScreenScores is the wire-safe outcome of a stage-1 scan: per-SNP
// best participating pair scores (Seen gates entries a sharded scan
// never touched — JSON cannot carry NaN), the scanned pair count, and
// the seed candidates. Cluster coordinators merge the per-shard scores
// elementwise and select survivors exactly like a local run.
type ScreenScores struct {
	// SNPs is M; Best and Seen have this length.
	SNPs int       `json:"snps"`
	Best []float64 `json:"best"`
	Seen []bool    `json:"seen"`
	// Objective names the ranking criterion the scores were computed
	// under; Merge and SelectSurvivors rebuild the ordering from it.
	Objective string `json:"objective"`
	// Pairs is how many pairs this scan scored.
	Pairs int64 `json:"pairs"`
	// TopPairs holds the scan's best pairs, best first (seed
	// candidates).
	TopPairs []SearchCandidate `json:"topPairs,omitempty"`
	// TopPairLimit is the requested seed depth (so merges of short
	// shard lists still fill it).
	TopPairLimit int `json:"topPairLimit,omitempty"`
	// DurationNs is the scan's wall time.
	DurationNs int64 `json:"durationNs"`
}

// ValidateShape checks one scan's internal consistency — the door check
// a coordinator runs on a posted or replayed stage-1 shard before
// accounting its tile done, so a malformed body never reaches the merge
// or the survivor set it pins.
func (sc *ScreenScores) ValidateShape() error {
	if sc.SNPs < 0 || len(sc.Best) != sc.SNPs || len(sc.Seen) != sc.SNPs {
		return fmt.Errorf("trigene: screen scores shape mismatch: %d SNPs, %d best, %d seen",
			sc.SNPs, len(sc.Best), len(sc.Seen))
	}
	if sc.Pairs < 0 || sc.TopPairLimit < 0 || sc.DurationNs < 0 {
		return fmt.Errorf("trigene: screen scores carry a negative count (pairs %d, topPairLimit %d, durationNs %d)",
			sc.Pairs, sc.TopPairLimit, sc.DurationNs)
	}
	if _, err := score.New(sc.Objective, 1); err != nil {
		return fmt.Errorf("trigene: screen scores carry no usable objective: %w", err)
	}
	for _, c := range sc.TopPairs {
		if len(c.SNPs) != 2 || c.SNPs[0] < 0 || c.SNPs[0] >= c.SNPs[1] || c.SNPs[1] >= sc.SNPs {
			return fmt.Errorf("trigene: screen scores name top pair %v, not two ascending SNPs below %d", c.SNPs, sc.SNPs)
		}
	}
	return nil
}

// MergeScreens combines sharded stage-1 scans into the full scan's
// scores: per-SNP bests merge elementwise under the shared objective,
// pair counts sum, and the seed lists re-rank. The result is bit-exact
// with an unsharded scan. Every scan must pass ValidateShape.
func MergeScreens(scores ...*ScreenScores) (*ScreenScores, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("trigene: MergeScreens needs at least one scan")
	}
	base := scores[0]
	if base == nil {
		return nil, fmt.Errorf("trigene: MergeScreens got a nil scan")
	}
	obj, err := score.New(base.Objective, 1)
	if err != nil {
		return nil, fmt.Errorf("trigene: MergeScreens: scan carries no usable objective: %w", err)
	}
	cmp := candidateCmp(obj)
	k := 0
	for _, sc := range scores {
		if sc == nil {
			return nil, fmt.Errorf("trigene: MergeScreens got a nil scan")
		}
		if err := sc.ValidateShape(); err != nil {
			return nil, err
		}
		if sc.SNPs != base.SNPs || sc.Objective != base.Objective {
			return nil, fmt.Errorf("trigene: cannot merge a %d-SNP %s scan with a %d-SNP %s scan",
				sc.SNPs, sc.Objective, base.SNPs, base.Objective)
		}
		if sc.TopPairLimit > k {
			k = sc.TopPairLimit
		}
	}
	if k == 0 {
		for _, sc := range scores {
			if len(sc.TopPairs) > k {
				k = len(sc.TopPairs)
			}
		}
	}
	out := &ScreenScores{
		SNPs:         base.SNPs,
		Best:         make([]float64, base.SNPs),
		Seen:         make([]bool, base.SNPs),
		Objective:    base.Objective,
		TopPairLimit: k,
	}
	for _, sc := range scores {
		for i := 0; i < base.SNPs; i++ {
			if !sc.Seen[i] {
				continue
			}
			if !out.Seen[i] || obj.Better(sc.Best[i], out.Best[i]) {
				out.Best[i], out.Seen[i] = sc.Best[i], true
			}
		}
		for _, c := range sc.TopPairs {
			out.TopPairs = topk.Insert(out.TopPairs, c, k, cmp)
		}
		out.Pairs += sc.Pairs
		out.DurationNs += sc.DurationNs
	}
	return out, nil
}

// SelectSurvivors picks the top-S SNPs by best participating pair
// score, deterministically (objective order, SNP index as tie-break),
// and returns them in ascending index order with the cut-line score.
// Fewer than S scored SNPs returns them all.
func (sc *ScreenScores) SelectSurvivors(s int) (survivors []int, threshold float64, err error) {
	obj, err := score.New(sc.Objective, 1)
	if err != nil {
		return nil, 0, fmt.Errorf("trigene: scan carries no usable objective: %w", err)
	}
	idx := make([]int, 0, sc.SNPs)
	for i := 0; i < sc.SNPs && i < len(sc.Seen); i++ {
		if sc.Seen[i] {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if sc.Best[ia] != sc.Best[ib] {
			return obj.Better(sc.Best[ia], sc.Best[ib])
		}
		return ia < ib
	})
	if s < len(idx) {
		idx = idx[:s]
	}
	if len(idx) > 0 {
		threshold = sc.Best[idx[len(idx)-1]]
	}
	sort.Ints(idx)
	return idx, threshold, nil
}

// SeedList converts the scan's top pairs into a pinned seed list for a
// ScreenSpec, capped at n.
func (sc *ScreenScores) SeedList(n int) [][2]int {
	if n > len(sc.TopPairs) {
		n = len(sc.TopPairs)
	}
	seeds := make([][2]int, 0, n)
	for _, c := range sc.TopPairs[:n] {
		if len(c.SNPs) == 2 {
			seeds = append(seeds, [2]int{c.SNPs[0], c.SNPs[1]})
		}
	}
	return seeds
}

// ScreenStage1 runs the stage-1 pairwise scan by itself and returns
// its wire-safe scores — the entry point cluster workers execute for a
// screened job's stage-1 tiles. Relevant options: WithObjective (must
// match the job), WithWorkers, WithShard (slices the block-pair space;
// per-shard scores merge with MergeScreens), WithMetrics. seedPairs
// bounds the scan's seed-candidate list (0 = none).
func (s *Session) ScreenStage1(ctx context.Context, seedPairs int, opts ...Option) (*ScreenScores, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := newSearchConfig(opts)
	if err != nil {
		return nil, err
	}
	if seedPairs < 0 {
		return nil, fmt.Errorf("trigene: negative screen seed count %d", seedPairs)
	}
	obj, objName, err := cfg.objective(s.Samples())
	if err != nil {
		return nil, err
	}
	eopts := engine.Options{
		Workers:   cfg.workers,
		Objective: obj,
		TopK:      seedPairs,
		Context:   ctx,
		Metrics:   cfg.metrics,
	}
	if cfg.shard != nil {
		eopts.Shard = &sched.Shard{Index: cfg.shard.index, Count: cfg.shard.count}
	}
	res, err := s.searcher.RunPairScreen(eopts)
	if err != nil {
		return nil, err
	}
	return screenScores(res, objName, seedPairs), nil
}

// screenScores converts an engine ScreenResult into the wire shape.
func screenScores(res *engine.ScreenResult, objName string, seedPairs int) *ScreenScores {
	sc := &ScreenScores{
		SNPs:         res.SNPs,
		Best:         res.Best,
		Seen:         res.Seen,
		Objective:    objName,
		Pairs:        res.Stats.Combinations,
		TopPairLimit: seedPairs,
		DurationNs:   res.Stats.Duration.Nanoseconds(),
	}
	sc.TopPairs = searchCandidates(res.TopPairs, 2)
	return sc
}

// searchScreened orchestrates the two-stage pipeline inside a Search
// call: decide (or accept) the survivor budget, run stage 1, gather
// the survivors into a compact sub-session, run the configured backend
// unchanged over it, remap candidate indices back, fold in the seeded
// extensions, and attach the audit record.
func (s *Session) searchScreened(ctx context.Context, cfg *searchConfig, tr *obs.Trace) (*Report, error) {
	spec := cfg.screen
	m := s.SNPs()
	if err := spec.validateFor(m); err != nil {
		return nil, err
	}
	if spec.SeedPairs > 0 && cfg.order != 3 {
		return nil, fmt.Errorf("trigene: screen seed pairs extend to triples; they require order 3, have %d", cfg.order)
	}
	info := &ScreenInfo{}

	// Resolve the survivor set: pinned, user-budgeted, or sized by the
	// rate of the exhaustive search a time budget starts (which may
	// decline the screen).
	var survivors []int
	var seeds [][2]int
	switch {
	case spec.pinned():
		survivors = spec.Survivors
		seeds = spec.Seeds
		info.Survivors = len(survivors)
		info.SeedPairs = len(seeds)
	default:
		var probe *budgetProbe
		if spec.BudgetSeconds > 0 {
			if cfg.order == 2 {
				info.Declined = true
				info.Reason = fmt.Sprintf("at order 2 the screen's stage 1 already is the exhaustive C(%d,2) pair search; stage 2 would only score pairs again", m)
				rep, err := cfg.backend.search(ctx, s, cfg)
				if err != nil {
					return nil, err
				}
				rep.Screen = info
				return rep, nil
			}
			rep, p, err := s.probeBudget(ctx, cfg, time.Duration(spec.BudgetSeconds*float64(time.Second)))
			if err != nil {
				return nil, err
			}
			observeProbe(cfg.metrics, p.rate(), rep != nil)
			if rep != nil {
				info.Declined = true
				info.Reason = p.fitReason(m, cfg.order)
				rep.Screen = info
				return rep, nil
			}
			probe = p
		}
		screenDone := tr.Start("screen")
		stage1 := time.Now()
		scores, err := s.ScreenStage1(ctx, spec.SeedPairs,
			screenStage1Options(cfg)...)
		if err != nil {
			screenDone()
			return nil, err
		}
		n := spec.MaxSurvivors
		if probe != nil {
			n, info.Reason = probe.size(m, cfg.order, spec.MaxSurvivors, time.Since(stage1))
		}
		survivors, info.Threshold, err = scores.SelectSurvivors(n)
		if err != nil {
			screenDone()
			return nil, err
		}
		seeds = scores.SeedList(spec.SeedPairs)
		screenDone()
		info.PairsScanned = scores.Pairs
		info.Survivors = len(survivors)
		info.SeedPairs = len(seeds)
		info.Stage1Ns = time.Since(stage1).Nanoseconds()
		observeScreen(cfg.metrics, scores.Pairs, len(survivors), time.Duration(info.Stage1Ns))
	}
	if len(survivors) < cfg.order {
		return nil, fmt.Errorf("trigene: screen kept %d survivors, fewer than the order-%d search needs", len(survivors), cfg.order)
	}

	// Stage 2: the configured backend runs unchanged over the gathered
	// survivor columns; candidates come back in subset positions. The
	// trace splits what Stage2Ns sums: subset, stage2, seeded.
	stage2 := time.Now()
	subsetDone := tr.Start("subset")
	sub, err := s.searcher.Subset(survivors)
	subsetDone()
	if err != nil {
		return nil, err
	}
	subSession := &Session{store: sub.Store(), searcher: sub}
	stage2Done := tr.Start("stage2")
	rep, err := cfg.backend.search(ctx, subSession, cfg)
	stage2Done()
	if err != nil {
		return nil, err
	}
	remapCandidates(rep, survivors)

	// Seeded extensions run over the original indices and fold into the
	// ranked list; triples fully inside the survivor set are skipped
	// (stage 2 already scored them).
	if len(seeds) > 0 {
		seededDone := tr.Start("seeded")
		err := s.runSeeded(ctx, cfg, rep, survivors, seeds)
		seededDone()
		if err != nil {
			return nil, err
		}
	}
	info.Stage2Ns = time.Since(stage2).Nanoseconds()
	rep.Screen = info
	return rep, nil
}

// screenStage1Options derives the stage-1 option list from the
// configured call. A locally sharded screened search (WithShard +
// WithScreen) runs the FULL deterministic stage 1 on every shard —
// identical survivor sets — and shards only stage 2, so shard merges
// stay bit-exact; cluster deployments shard stage 1 as its own phase
// through ScreenStage1 instead.
func screenStage1Options(cfg *searchConfig) []Option {
	opts := []Option{WithMetrics(cfg.metrics)}
	if cfg.workers > 0 {
		opts = append(opts, WithWorkers(cfg.workers))
	}
	if cfg.objName != "" {
		opts = append(opts, WithObjective(cfg.objName))
	}
	return opts
}

// runSeeded executes the seeded extension scan and merges it into the
// stage-2 report.
func (s *Session) runSeeded(ctx context.Context, cfg *searchConfig, rep *Report, survivors []int, seeds [][2]int) error {
	obj, _, err := cfg.objective(s.Samples())
	if err != nil {
		return err
	}
	inSubset := make([]bool, s.SNPs())
	for _, c := range survivors {
		inSubset[c] = true
	}
	eseeds := make([]engine.Pair, len(seeds))
	for i, p := range seeds {
		eseeds[i] = engine.Pair{I: p[0], J: p[1]}
	}
	eopts := engine.Options{
		Workers:   cfg.workers,
		Objective: obj,
		TopK:      cfg.topK,
		Context:   ctx,
		Metrics:   cfg.metrics,
	}
	if cfg.shard != nil {
		eopts.Shard = &sched.Shard{Index: cfg.shard.index, Count: cfg.shard.count}
	}
	res, err := s.searcher.RunSeeded(eseeds, inSubset, eopts)
	if err != nil {
		return err
	}
	cmp := candidateCmp(obj)
	for _, c := range searchCandidates(res.TopK, res.Order) {
		rep.TopK = topk.Insert(rep.TopK, c, cfg.topK, cmp)
	}
	if len(rep.TopK) > 0 {
		rep.Best = rep.TopK[0]
	}
	rep.Combinations += res.Stats.Combinations
	rep.Elements += res.Stats.Elements
	return nil
}

// remapCandidates translates subset-position candidate indices back to
// original SNP indices through the ascending survivor list (which
// preserves order, so tie-breaks agree with an unscreened run).
func remapCandidates(rep *Report, survivors []int) {
	remap := func(c *SearchCandidate) {
		for i, p := range c.SNPs {
			if p >= 0 && p < len(survivors) {
				c.SNPs[i] = survivors[p]
			}
		}
	}
	for i := range rep.TopK {
		remap(&rep.TopK[i])
	}
	// Best aliases TopK[0]'s SNP slice on every backend; reassign rather
	// than remap it a second time through the survivor list.
	if len(rep.TopK) > 0 {
		rep.Best = rep.TopK[0]
	} else {
		remap(&rep.Best)
	}
}

// minScreenSurvivors floors the survivor count a budget sizes at every
// order: a screen keeps at least 3 SNPs, and at least k at order k, which
// stage 2 needs for one combination.
const minScreenSurvivors = 3

// budgetProbe is what the exhaustive search under a budget screen
// measured: its wall time, and at its one decision the combinations done,
// the space's total and the wall time elapsed. A search that finished
// before 5 % of the budget made no decision; its rate is over all of it.
type budgetProbe struct {
	budget            time.Duration
	done, total       int64
	elapsed, wall     time.Duration
	decided, overshot bool
}

// rate is the combinations per second the probe measured.
func (p *budgetProbe) rate() float64 { return float64(p.done) / p.elapsed.Seconds() }

// projected is the exhaustive search's projected wall time.
func (p *budgetProbe) projected() time.Duration {
	return time.Duration(float64(p.elapsed) * float64(p.total) / float64(p.done))
}

// probeBudget starts the exhaustive search of a budget screen and decides
// once, at the first progress report at or after 5 % of the budget,
// whether it fits: elapsed x total / done against the budget. A search
// that fits, or finishes first, runs to the end and its Report is
// returned; one that does not is cancelled, and only its measurement is
// returned.
func (s *Session) probeBudget(ctx context.Context, cfg *searchConfig, budget time.Duration) (*Report, *budgetProbe, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &budgetProbe{budget: budget}
	var claimed atomic.Bool
	pcfg := *cfg
	start := time.Now()
	pcfg.progress = func(done, total int64) {
		if cfg.progress != nil {
			cfg.progress(done, total)
		}
		if claimed.Load() {
			return
		}
		elapsed := time.Since(start)
		if elapsed < budget/20 || done <= 0 || !claimed.CompareAndSwap(false, true) {
			return
		}
		// Written by the one report that claimed the decision, read once
		// the search's workers have joined.
		p.decided, p.done, p.total, p.elapsed = true, done, total, elapsed
		if p.projected() > budget {
			p.overshot = true
			cancel()
		}
	}
	rep, err := cfg.backend.search(pctx, s, &pcfg)
	p.wall = time.Since(start)
	switch {
	case err == nil:
		if !p.decided {
			p.done, p.total, p.elapsed = rep.Combinations, rep.Combinations, p.wall
		}
		return rep, p, nil
	case p.overshot && ctx.Err() == nil:
		return nil, p, nil
	}
	return nil, nil, err
}

// fitReason explains a budget screen the exhaustive search ran through.
func (p *budgetProbe) fitReason(m, k int) string {
	r := fmt.Sprintf("exhaustive C(%d,%d) ran in %.3gs against the %.3gs budget", m, k, p.wall.Seconds(), p.budget.Seconds())
	if !p.decided {
		return r + fmt.Sprintf(", finishing at %.3g combinations/s before 5%% of it", p.rate())
	}
	return r + fmt.Sprintf(": projected %.3gs from %.3g combinations/s measured over %.3gs", p.projected().Seconds(), p.rate(), p.elapsed.Seconds())
}

// size sizes the survivor count of a screen the probe cut off, once
// stage 1 has taken stage1: the largest S whose C(S,k) stage 2, at the
// probe's rate, fits what the probe and stage 1 left of the budget,
// clamped into [max(3, k), m] and capped at maxSurvivors (0 = no cap).
// The reason names the rate, the projection and the split.
func (p *budgetProbe) size(m, k, maxSurvivors int, stage1 time.Duration) (int, string) {
	left := max(p.budget-p.wall-stage1, 0)
	n := combin.InvBinomial(int64(min(left.Seconds()*p.rate(), math.MaxInt64/2)), k, m+1)
	note := ""
	if floor := max(minScreenSurvivors, k); n < floor {
		n, note = floor, " (below the screen floor; kept the minimum survivor set)"
	}
	if maxSurvivors > 0 && n > maxSurvivors {
		n, note = maxSurvivors, fmt.Sprintf("; capped at MaxSurvivors %d", maxSurvivors)
	}
	return n, fmt.Sprintf("exhaustive C(%d,%d) projected at %.3gs from %.3g combinations/s measured over %.3gs, past the %.3gs budget; "+
		"screen %d SNPs to %d survivors: the probe (%.3gs) and stage 1 (%.3gs) leave %.3gs for stage 2%s",
		m, k, p.projected().Seconds(), p.rate(), p.elapsed.Seconds(), p.budget.Seconds(),
		m, n, p.wall.Seconds(), stage1.Seconds(), left.Seconds(), note)
}

// BudgetScreenError refuses a ScreenSpec.BudgetSeconds a search cannot
// price: a budget is priced from the progress the exhaustive search
// reports, which only the cpu backend does, and shards of one search
// would each measure their own slice and could size different screens.
// Such a search pins its survivor count with ScreenSpec.MaxSurvivors.
type BudgetScreenError struct {
	// Backend names the search's backend; Sharded is set for a sharded
	// search.
	Backend string
	Sharded bool
}

func (e *BudgetScreenError) Error() string {
	if e.Sharded {
		return "trigene: a sharded search cannot size its screen by ScreenSpec.BudgetSeconds (each shard would price its own slice); set ScreenSpec.MaxSurvivors"
	}
	return fmt.Sprintf("trigene: the %s backend reports no progress to price ScreenSpec.BudgetSeconds by; set ScreenSpec.MaxSurvivors", e.Backend)
}

// observeScreen records the stage-1 counters: pairs scanned, survivors
// kept, and the scan's wall time. A nil registry is a no-op.
func observeScreen(reg *obs.Registry, pairs int64, survivors int, d time.Duration) {
	reg.Counter("trigene_screen_pairs_total", "Pairs scanned by stage-1 screens.").Add(pairs)
	reg.Gauge("trigene_screen_survivors", "Survivor count of the most recent stage-1 screen.").Set(float64(survivors))
	reg.Histogram("trigene_screen_seconds", "Stage-1 screen wall time in seconds.", obs.DurationBuckets).Observe(d.Seconds())
}

// observeProbe records a budget screen's decision: the combinations/s its
// exhaustive search measured, and whether that search fit the budget or
// was screened. A nil registry is a no-op.
func observeProbe(reg *obs.Registry, rate float64, fit bool) {
	reg.Gauge("trigene_screen_probe_combinations_per_second",
		"Combinations/s the exhaustive search of the most recent budget screen measured.").Set(rate)
	decision := "screened"
	if fit {
		decision = "fit"
	}
	reg.Counter("trigene_screen_budget_decisions_total", "Budget screen decisions: the exhaustive search fit the budget or was screened.",
		obs.L("decision", decision)).Inc()
}
