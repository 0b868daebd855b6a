package trigene

import (
	"fmt"

	"trigene/internal/contingency"
	"trigene/internal/engine"
	"trigene/internal/obs"
	"trigene/internal/score"
)

// Option configures a Session.Search or Session.PermutationTest call.
// Options are applied in order; a later option overrides an earlier
// one. Invalid combinations are reported by the call itself, so every
// configuration error surfaces through one code path.
type Option func(*searchConfig) error

// searchConfig is the resolved configuration of one call.
type searchConfig struct {
	order       int
	orderSet    bool
	topK        int
	objName     string
	backend     Backend
	approach    Approach
	approachSet bool
	workers     int
	shard       *shardSpec
	progress    func(done, total int64)
	remote      RemoteExecutor
	metrics     *obs.Registry
	trace       bool
	screen      *ScreenSpec

	// Permutation-test knobs (ignored by Search).
	permutations int
	seed         int64
}

// shardSpec selects shard index of count equal slices of the
// combination-rank space.
type shardSpec struct {
	index, count int
}

func newSearchConfig(opts []Option) (*searchConfig, error) {
	cfg := &searchConfig{order: 3, topK: 1}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("trigene: nil Option")
		}
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.backend == nil {
		cfg.backend = CPU()
	}
	_, cpu := cfg.backend.(cpuBackend)
	if cpu && cfg.approachSet && cfg.approach != V3Fused && cfg.approach != V4Fused {
		return nil, fmt.Errorf("trigene: the cpu backend runs approach V3F or V4F, not %v (V1..V4 are gpusim kernels)", cfg.approach)
	}
	if sc := cfg.screen; sc != nil && sc.BudgetSeconds > 0 && (!cpu || cfg.shard != nil) {
		return nil, &BudgetScreenError{Backend: cfg.backend.Name(), Sharded: cpu && cfg.shard != nil}
	}
	return cfg, nil
}

// checkSpace refuses a search over m SNPs whose combination space is more
// than an int64 counts: C(n, k) over the n SNPs the order-k search may
// enumerate, which is all m unless a screen pins its survivors or caps
// them. A time budget caps nothing: its screen starts with the exhaustive
// C(m, k) search. It runs before any encoding or screen.
func (c *searchConfig) checkSpace(m int) error {
	n := m
	if sc := c.screen; sc != nil {
		switch {
		case sc.pinned():
			n = len(sc.Survivors)
		case sc.BudgetSeconds > 0:
		case sc.MaxSurvivors > 0:
			n = min(m, sc.MaxSurvivors)
		}
	}
	if err := engine.CheckSpace(n, c.order); err != nil {
		return fmt.Errorf("%w; search fewer SNPs, or screen them (ScreenSpec)", err)
	}
	return nil
}

// cpuApproach is the cpu backend's approach for the configured search:
// its pinned V3F or its default V4F at order 3 (sharded or not: their
// shards slice the block-triple space and merge bit-exactly) and V2 at
// every other order.
func (c *searchConfig) cpuApproach() Approach {
	switch {
	case c.order != 3:
		return V2Split
	case c.approach != 0:
		return c.approach
	}
	return V4Fused
}

// objective builds the configured objective for a dataset of n samples
// (default: the paper's Bayesian K2). The returned name is the one
// recorded in Reports.
func (c *searchConfig) objective(n int) (score.Objective, string, error) {
	name := c.objName
	if name == "" {
		name = "k2"
	}
	obj, err := score.New(name, n)
	if err != nil {
		return nil, "", err
	}
	return obj, name, nil
}

// WithOrder sets the interaction order (default 3). Orders 2 and 3 use
// the specialized kernels; 4 and above use the generic k-way engine.
func WithOrder(k int) Option {
	return func(c *searchConfig) error {
		if k < 2 || k > contingency.MaxOrder {
			return fmt.Errorf("trigene: order %d out of [2,%d]", k, contingency.MaxOrder)
		}
		c.order = k
		c.orderSet = true
		return nil
	}
}

// WithTopK sets how many ranked candidates the Report carries
// (default 1). Every backend honors it, including gpusim and hetero,
// whose per-side lists merge bit-exactly.
func WithTopK(n int) Option {
	return func(c *searchConfig) error {
		if n < 1 {
			return fmt.Errorf("trigene: TopK must be positive, got %d", n)
		}
		c.topK = n
		return nil
	}
}

// WithObjective selects the ranking objective by name: "k2" (the
// paper's Bayesian criterion, the default), "mi" (mutual information)
// or "gini".
func WithObjective(name string) Option {
	return func(c *searchConfig) error {
		if _, err := score.New(name, 1); err != nil {
			return err
		}
		c.objName = name
		return nil
	}
}

// WithBackend selects the execution engine (default CPU()).
func WithBackend(b Backend) Option {
	return func(c *searchConfig) error {
		if b == nil {
			return fmt.Errorf("trigene: nil Backend")
		}
		c.backend = b
		return nil
	}
}

// WithApproach selects the pipeline on backends with selectable ones.
// The CPU backend runs the lanes pass: V4Fused ("V4F", the default) or
// V3Fused ("V3F", the portable Go bodies); it refuses V1..V4 before any
// work. The simulated GPU runs the paper's kernels V1..V4
// (naive/split/transposed/tiled, V4 the default) or the fused one
// (V4Fused). Use ParseApproach or ParseGPUKernel to obtain the value
// from a string.
func WithApproach(v Approach) Option {
	return func(c *searchConfig) error {
		if v < V1Naive || v > V4Fused {
			return fmt.Errorf("trigene: invalid approach %d", int(v))
		}
		c.approach = v
		c.approachSet = true
		return nil
	}
}

// WithShard restricts the search to shard index of count near-equal
// contiguous slices of the scheduler's work space — the primitive that
// distributed deployments partition on. Every backend shards: the CPU's
// orders 4 to 7, gpusim, baseline and hetero slice the combination-rank
// space; the CPU's order 3 (V3F/V4F) slices block triples of eight SNPs
// (ShardSpaceFusedBlocks) and its order 2 block pairs of eight
// ("block-pairs-bs8", see ShardInfo.Space). Running every
// shard and merging the Reports (MergeReports) reproduces the
// unsharded search bit-exactly.
func WithShard(index, count int) Option {
	return func(c *searchConfig) error {
		if count < 1 || index < 0 || index >= count {
			return fmt.Errorf("trigene: invalid shard %d of %d", index, count)
		}
		c.shard = &shardSpec{index: index, count: count}
		return nil
	}
}

// WithProgress installs a progress callback invoked with the
// cumulative number of evaluated combinations and the total. It must
// be safe for concurrent use and return quickly. Progress is reported
// by the CPU backend on every order and approach; other backends
// complete without intermediate callbacks. Under a time-budgeted screen
// it reports the exhaustive search first and, if that is cut off,
// stage 2's smaller space from zero.
func WithProgress(fn func(done, total int64)) Option {
	return func(c *searchConfig) error {
		c.progress = fn
		return nil
	}
}

// WithMetrics attaches a metrics registry to the call: the session
// instruments the dataset store (encoding builds, pack load mode) and
// the CPU engine (tiles and combinations scored per approach, the
// scheduler's claim series) against it, all under "trigene_"-prefixed
// names. The registry is typically shared with an HTTP /metrics
// endpoint via obs.Handler. Instrumentation is allocation-free on the
// hot path — metric pointers are resolved before the worker pool
// starts and updated with atomic adds — so attaching a registry does
// not perturb the throughput being measured. A nil registry is
// allowed and equivalent to omitting the option.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *searchConfig) error {
		c.metrics = reg
		return nil
	}
}

// WithTrace records the call's phase timeline — plan, encode, search,
// and (after MergeReports) merge spans — and attaches it to the Report
// as Trace. The trace travels with the Report through the JSON wire
// format. Tracing costs a handful of clock reads per call; it never
// touches the per-combination hot path.
func WithTrace() Option {
	return func(c *searchConfig) error {
		c.trace = true
		return nil
	}
}

// WithCluster routes the search to a cluster through the given
// executor (typically internal/cluster.Client pointed at a trigened
// coordinator): the dataset and the serialized configuration
// (SearchSpec) are submitted as a job, workers lease and execute
// tiles, and the merged Report comes back bit-exact with a local run
// of the same configuration. The other options keep their meaning —
// WithBackend/WithOrder/WithApproach select what every worker runs,
// WithWorkers the per-node parallelism. WithShard and WithProgress do
// not combine with WithCluster: the cluster owns the partitioning, and
// progress is observed by polling the job status.
func WithCluster(exec RemoteExecutor) Option {
	return func(c *searchConfig) error {
		if exec == nil {
			return fmt.Errorf("trigene: nil RemoteExecutor")
		}
		c.remote = exec
		return nil
	}
}

// WithWorkers sets the host parallelism (default: all cores). On the
// baseline backend this is the number of static "MPI ranks".
func WithWorkers(n int) Option {
	return func(c *searchConfig) error {
		if n < 1 {
			return fmt.Errorf("trigene: workers must be positive, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithPermutations sets the relabeling count of a PermutationTest
// (default 1000). Search ignores it.
func WithPermutations(n int) Option {
	return func(c *searchConfig) error {
		if n < 1 {
			return fmt.Errorf("trigene: permutations must be positive, got %d", n)
		}
		c.permutations = n
		return nil
	}
}

// WithSeed fixes the RNG seed of a PermutationTest, making it
// reproducible. Search ignores it.
func WithSeed(seed int64) Option {
	return func(c *searchConfig) error {
		c.seed = seed
		return nil
	}
}
