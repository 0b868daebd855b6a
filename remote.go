package trigene

import (
	"context"
	"fmt"
	"strings"
)

// SearchSpec is the wire form of a search configuration: the subset of
// a Session.Search call that serializes, carried verbatim between a
// cluster client, its coordinator and the workers executing tiles.
// Zero values mean "the call's default" (order 3, top-K 1, the
// backend's native objective and approach, all cores), so a zero
// SearchSpec is the zero Search call.
type SearchSpec struct {
	// Order is the interaction order (0 = default 3).
	Order int `json:"order,omitempty"`
	// TopK is the ranked candidate depth (0 = default 1).
	TopK int `json:"topK,omitempty"`
	// Objective names the ranking criterion ("" = backend default).
	Objective string `json:"objective,omitempty"`
	// Backend is the Backend.Name() of the execution engine: "cpu",
	// "gpusim:<ID>", "baseline" or "hetero" ("" = cpu). ParseBackend
	// rebuilds the Backend from it.
	Backend string `json:"backend,omitempty"`
	// Approach pins the pipeline variant ("" = backend default): on
	// gpusim a kernel "V1".."V4" or the fused one; on the cpu backend
	// "V3F"/"V4F", which spec() writes as their numeric wire forms
	// "V5"/"V6". A cpu spec naming V1..V4 is refused by Options.
	Approach string `json:"approach,omitempty"`
	// Workers is the per-node host parallelism (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// MaxWorkers caps how many distinct workers may hold live leases
	// on the job at once (0 = unlimited). Cluster scheduling policy
	// enforced by the coordinator; local execution ignores it.
	MaxWorkers int `json:"maxWorkers,omitempty"`
	// DeadlineMillis is the job's wall-clock budget from submission; a
	// cluster job still running past it is failed by the coordinator
	// (0 = none). Local execution ignores it — use a context deadline
	// there.
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
	// Screen carries WithScreen across the wire. A screened cluster job
	// runs stage 1 as its own sharded phase; the coordinator merges the
	// shard scores, selects survivors, and pins them (Survivors/Seeds)
	// into the stage-2 grants.
	Screen *ScreenSpec `json:"screen,omitempty"`
	// Perm marks the job as a permutation test over the given
	// candidates: tiles shard the permutation index range instead of a
	// combination space, workers run Session.PermutationSlice, and the
	// coordinator merges hit counts (MergePerms) into Report.Perm.
	// Objective and Workers keep their meaning; the search-shaping
	// fields (Order, TopK, Approach, Screen) do not combine
	// with it.
	Perm *PermSpec `json:"perm,omitempty"`
}

// ParseBackend rebuilds a Backend from its Name(): "cpu" (or ""),
// "baseline", "hetero", or "gpusim:<ID>" with a Table II device label.
func ParseBackend(name string) (Backend, error) {
	switch {
	case name == "" || name == "cpu":
		return CPU(), nil
	case name == "baseline":
		return Baseline(), nil
	case name == "hetero":
		return Hetero(), nil
	case strings.HasPrefix(name, "gpusim:"):
		dev, err := GPUByID(strings.TrimPrefix(name, "gpusim:"))
		if err != nil {
			return nil, err
		}
		return GPUSim(dev), nil
	default:
		return nil, fmt.Errorf("trigene: unknown backend %q (want cpu, baseline, hetero or gpusim:<ID>)", name)
	}
}

// Options rebuilds the Search options the spec describes. The caller
// appends placement options (WithShard) that are not part of the wire
// contract. An empty Backend adds no WithBackend: the call's default,
// CPU.
func (sp SearchSpec) Options() ([]Option, error) {
	var opts []Option
	if sp.Backend != "" {
		be, err := ParseBackend(sp.Backend)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithBackend(be))
	}
	if sp.Order != 0 {
		opts = append(opts, WithOrder(sp.Order))
	}
	if sp.TopK != 0 {
		opts = append(opts, WithTopK(sp.TopK))
	}
	if sp.Objective != "" {
		opts = append(opts, WithObjective(sp.Objective))
	}
	if sp.Approach != "" {
		var ap Approach
		if strings.HasPrefix(sp.Backend, "gpusim:") {
			k, err := ParseGPUKernel(sp.Approach)
			if err != nil {
				return nil, err
			}
			ap = Approach(int(k))
		} else {
			a, err := ParseApproach(sp.Approach)
			if err != nil {
				return nil, err
			}
			ap = a
		}
		opts = append(opts, WithApproach(ap))
	}
	if sp.Workers != 0 {
		opts = append(opts, WithWorkers(sp.Workers))
	}
	if sp.Screen != nil {
		opts = append(opts, WithScreen(*sp.Screen))
	}
	if sp.Perm != nil {
		opts = append(opts, WithPermutations(sp.Perm.permutations()), WithSeed(sp.Perm.Seed))
	}
	return opts, nil
}

// spec serializes the resolved configuration of a Search call.
func (c *searchConfig) spec() SearchSpec {
	sp := SearchSpec{
		Order:     c.order,
		TopK:      c.topK,
		Objective: c.objName,
		Backend:   c.backend.Name(),
		Workers:   c.workers,
	}
	if c.approachSet {
		sp.Approach = fmt.Sprintf("V%d", int(c.approach))
	}
	if c.screen != nil {
		sc := *c.screen
		sp.Screen = &sc
	}
	return sp
}

// RemoteExecutor submits one configured search for execution somewhere
// else — WithCluster's contract. The cluster client
// (internal/cluster.Client, fronted by the trigened daemon) implements
// it by naming the dataset by its content hash (uploading it only when
// the coordinator does not hold it already), leasing tiles to workers
// and merging their tile Reports bit-exactly; any transport satisfying
// this interface plugs into Session.Search the same way.
type RemoteExecutor interface {
	// Name identifies the executor in errors and logs.
	Name() string
	// ExecuteSearch runs the spec against the given dataset and returns
	// the merged Report. The Report must be bit-exact with a local
	// Session.Search of the same spec.
	ExecuteSearch(ctx context.Context, mx *Matrix, spec SearchSpec) (*Report, error)
}

// PermExecutor extends RemoteExecutor with distributed permutation
// testing — what PermutationTest/PermutationTestAll under WithCluster
// require. The cluster client implements it by sharding the
// permutation index range into tiles, submitting the dataset by content
// hash like a search (a durable coordinator keeps a finished search's
// dataset, so a test after it does not upload the dataset again); any
// executor whose merged hit counts are bit-exact with a local run of the
// same spec plugs in the same way.
type PermExecutor interface {
	RemoteExecutor
	// ExecutePerm runs the permutation job (spec.Perm is set) against
	// the given dataset and returns a Report whose Perm block carries
	// the merged per-candidate results.
	ExecutePerm(ctx context.Context, mx *Matrix, spec SearchSpec) (*Report, error)
}
