// Package mpi3snp reimplements the kernel strategy of MPI3SNP
// (Ponte-Fernández et al., IJHPCA 2020), the reference third-order
// exhaustive epistasis tool the paper compares against in Table III.
//
// Faithful strategy, single host: the dataset is split by phenotype
// class and binarized, but — unlike this work's engine — all three
// genotype planes are stored and loaded (no NOR inference), there is no
// cache tiling, combinations are distributed statically across ranks
// (MPI-style) rather than through a dynamic pool, and candidates are
// ranked by mutual information. Running this baseline and the engine's
// V4 under the same Go runtime isolates the algorithmic differences the
// paper credits for its speedups.
package mpi3snp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"trigene/internal/bitvec"
	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/engine"
	"trigene/internal/sched"
	"trigene/internal/score"
	"trigene/internal/store"
)

// Options configures a baseline search.
type Options struct {
	// Ranks is the number of static workers ("MPI processes");
	// default runtime.GOMAXPROCS(0).
	Ranks int
	// TopK is how many candidates to return (default 1; MPI3SNP itself
	// reports a ranked list).
	TopK int
	// Range restricts the search to combination ranks [Lo, Hi) in
	// colexicographic order — the shard primitive. Nil means the full
	// space. The static MPI-style distribution then partitions the
	// range instead of the whole space, so sharded runs merge
	// bit-exactly with unsharded ones.
	Range *combin.Range
	// Context optionally allows cancellation; nil means
	// context.Background(). Cancellation is observed periodically
	// inside each rank's static block and returns the context error.
	Context context.Context
}

// Stats reports the volume and speed of a completed search.
type Stats struct {
	Combinations   int64
	Elements       float64
	Duration       time.Duration
	ElementsPerSec float64
}

// Result is the outcome of a baseline search.
type Result struct {
	Best engine.Candidate
	// TopK holds up to Options.TopK candidates, best (highest MI)
	// first; ties go to the lexicographically smaller triple.
	TopK  []engine.Candidate
	Stats Stats
}

// Search runs the exhaustive baseline search. The per-class
// three-plane encoding (MPI3SNP's data layout) comes from the
// encoded-dataset store, which builds it once and shares it across
// runs.
func Search(st *store.Store, opts Options) (*Result, error) {
	if st.SNPs() < 3 {
		return nil, fmt.Errorf("mpi3snp: need at least 3 SNPs, have %d", st.SNPs())
	}
	if opts.Ranks == 0 {
		opts.Ranks = runtime.GOMAXPROCS(0)
	}
	if opts.Ranks < 1 {
		return nil, fmt.Errorf("mpi3snp: invalid rank count %d", opts.Ranks)
	}
	if opts.TopK == 0 {
		opts.TopK = 1
	}
	if opts.TopK < 0 {
		return nil, fmt.Errorf("mpi3snp: invalid TopK %d", opts.TopK)
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	cp := st.ClassPlanes()
	m := st.SNPs()
	lo, hi := int64(0), combin.Triples(m)
	if r := opts.Range; r != nil {
		if r.Lo < 0 || r.Hi < r.Lo || r.Hi > hi {
			return nil, fmt.Errorf("mpi3snp: invalid rank range [%d,%d) of %d", r.Lo, r.Hi, hi)
		}
		lo, hi = r.Lo, r.Hi
	}

	// Static block distribution over combination ranks, as an MPI code
	// would partition up front: the scheduler's Partition, not its
	// claiming cursor, because static assignment is the point of this
	// baseline.
	ranges := sched.NewSource(lo, hi, 1).Partition(opts.Ranks)
	tops := make([]*engine.TopK, len(ranges))
	var wg sync.WaitGroup
	for rk, rg := range ranges {
		tops[rk] = engine.NewTopK(score.MIObjective{}, opts.TopK)
		wg.Add(1)
		go func(top *engine.TopK, rg combin.Range) {
			defer wg.Done()
			searchRange(ctx, cp, m, rg, top)
		}(tops[rk], rg)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	merged := engine.NewTopK(score.MIObjective{}, opts.TopK)
	for _, top := range tops {
		for _, c := range top.List() {
			merged.Offer(c)
		}
	}
	res := &Result{TopK: merged.List()}
	if len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	}
	res.Stats.Combinations = hi - lo
	res.Stats.Elements = float64(hi-lo) * float64(st.Samples())
	res.Stats.Duration = time.Since(start)
	if s := res.Stats.Duration.Seconds(); s > 0 {
		res.Stats.ElementsPerSec = res.Stats.Elements / s
	}
	return res, nil
}

// searchRange ranks the triples of rg into top by mutual information.
func searchRange(ctx context.Context, cp *dataset.ClassPlanes, m int, rg combin.Range, top *engine.TopK) {
	var tab contingency.Table // reused across combinations
	i, j, k := combin.UnrankTriple(rg.Lo, m)
	for r := rg.Lo; r < rg.Hi; r++ {
		if (r-rg.Lo)%8192 == 0 && ctx.Err() != nil {
			return
		}
		for class := 0; class < 2; class++ {
			for gx := 0; gx < 3; gx++ {
				x := cp.Plane(class, i, gx)
				for gy := 0; gy < 3; gy++ {
					y := cp.Plane(class, j, gy)
					for gz := 0; gz < 3; gz++ {
						z := cp.Plane(class, k, gz)
						tab.Counts[class][contingency.ComboIndex(gx, gy, gz)] =
							int32(bitvec.PopCountAnd3(x, y, z))
					}
				}
			}
		}
		top.Offer(engine.Candidate{SNPs: [contingency.MaxOrder]int{i, j, k}, Score: score.MIObjective{}.Score(&tab)})
		i, j, k, _ = combin.NextTriple(i, j, k, m)
	}
}
