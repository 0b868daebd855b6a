// Package sched is the backend-agnostic tile scheduler: the one
// work-distribution core every execution engine (CPU flat, CPU
// blocked, simulated GPU, MPI-style baseline, heterogeneous) consumes.
//
// A Source enumerates one search space as a contiguous run of ranks —
// colexicographic combination ranks for the flat pipelines (V2, pairs,
// k-way, the GPU kernels) and block-triple ranks for the CPU's blocked
// lanes pass (V3F/V4F) — cut into tiles of
// Grain ranks. A Cursor is a lock-free claiming cursor over a Source:
// any number of consumers, of any kind and speed, Claim tiles until the
// space is drained, which is exactly the paper's dynamically scheduled
// pool and, with consumers of different kinds sharing one Cursor, true
// work-stealing heterogeneous execution (Section V-D).
//
// Three consumption styles cover every backend:
//
//   - Drain: a homogeneous pool of n goroutine consumers (the CPU
//     engine's worker pool);
//   - Consume: a single caller-driven consumer loop (the GPU
//     simulator, or either half of a heterogeneous run sharing a
//     Cursor with the other half);
//   - Partition: a static up-front split with no cursor at all (the
//     MPI3SNP-style baseline, which distributes ranks the way an MPI
//     code would).
//
// Sharding is a first-class property of the space, not of any engine:
// Source.Shard returns the sub-Source covering slice index of count,
// so every backend that enumerates through a Source shards for free
// with bit-exact merge semantics.
package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"trigene/internal/combin"
	"trigene/internal/join"
)

// Tile is one claimed unit of work: a half-open range [Lo, Hi) of
// ranks in the space its Source enumerates.
type Tile = combin.Range

// Shard selects slice Index of Count near-equal contiguous slices of
// a tile space.
type Shard struct {
	Index, Count int
}

// Validate checks the shard coordinates.
func (sh Shard) Validate() error {
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("sched: invalid shard %d of %d", sh.Index, sh.Count)
	}
	return nil
}

// Source describes one search space as a claimable rank range with a
// preferred ranks-per-claim grain. The zero value is an empty space.
type Source struct {
	lo, hi int64
	grain  int64
}

// NewSource returns a Source over ranks [lo, hi) with the given claim
// grain (clamped to at least 1).
func NewSource(lo, hi, grain int64) Source {
	if hi < lo {
		hi = lo
	}
	if grain < 1 {
		grain = 1
	}
	return Source{lo: lo, hi: hi, grain: grain}
}

// Flat returns a Source over the flat rank space [0, total) with a
// grain balancing claim overhead against load balance for the given
// consumer count: ~64 claims per consumer, clamped to [256, 1<<20]
// ranks.
func Flat(total int64, consumers int) Source {
	return NewSource(0, total, AutoGrain(total, consumers))
}

// MinGrain and MaxGrain bound every grain heuristic: below MinGrain
// claim overhead dominates, above MaxGrain tiles get too coarse for
// load balance and cancellation latency.
const (
	MinGrain = 256
	MaxGrain = 1 << 20
)

// AutoGrain is the flat-space grain heuristic: aim for ~64 claims per
// consumer, clamped to [MinGrain, MaxGrain] ranks. It is total-order
// safe: non-positive totals and absurd consumer counts clamp instead
// of overflowing.
func AutoGrain(total int64, consumers int) int64 {
	if consumers < 1 {
		consumers = 1
	}
	// Divide before multiplying so total near MaxInt64 cannot overflow
	// int64(consumers)*64.
	grain := total / int64(consumers) / 64
	if grain < MinGrain {
		grain = MinGrain
	}
	if grain > MaxGrain {
		grain = MaxGrain
	}
	return grain
}

// Bounds returns the rank range the source covers.
func (s Source) Bounds() Tile { return Tile{Lo: s.lo, Hi: s.hi} }

// Ranks returns the number of ranks in the space.
func (s Source) Ranks() int64 { return s.hi - s.lo }

// Grain returns the preferred ranks per claim.
func (s Source) Grain() int64 { return s.grain }

// WithGrain returns the source with a different claim grain.
func (s Source) WithGrain(grain int64) Source {
	return NewSource(s.lo, s.hi, grain)
}

// Shard returns the sub-source covering slice sh.Index of sh.Count:
// contiguous slices whose sizes differ by at most one. This is the
// primitive distributed deployments partition on; the union of all
// shards is the source, so per-shard results merge bit-exactly.
func (s Source) Shard(sh Shard) (Source, error) {
	if err := sh.Validate(); err != nil {
		return Source{}, err
	}
	total := s.Ranks()
	n, i := int64(sh.Count), int64(sh.Index)
	base, rem := total/n, total%n
	lo := s.lo + i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return NewSource(lo, lo+size, s.grain), nil
}

// Partition statically splits the source into at most parts
// contiguous tiles of near-equal size (the baseline's MPI-style
// distribution). Empty tiles are omitted.
func (s Source) Partition(parts int) []Tile {
	if parts < 1 {
		parts = 1
	}
	n := int64(parts)
	total := s.Ranks()
	out := make([]Tile, 0, parts)
	base, rem := total/n, total%n
	lo := s.lo
	for p := int64(0); p < n && lo < s.hi; p++ {
		size := base
		if p < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, Tile{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Cursor hands tiles of one Source to any number of concurrent
// consumers: a lock-free claiming cursor. Claim is safe for
// concurrent use; the progress configuration must be set before the
// first claim.
type Cursor struct {
	src  Source
	next atomic.Int64 // ranks handed out, relative to src.lo
	done atomic.Int64 // items reported finished

	progressTotal int64
	progress      func(done, total int64)

	m cursorMetrics // resolved series; zero value is a no-op (see Instrument)
}

// NewCursor returns a claiming cursor over the source.
func NewCursor(src Source) *Cursor { return &Cursor{src: src} }

// Source returns the space the cursor distributes.
func (c *Cursor) Source() Source { return c.src }

// OnProgress installs a progress callback invoked after each finished
// tile with the cumulative number of finished items and the given
// total. It must be set before consumers start and be safe for
// concurrent use.
func (c *Cursor) OnProgress(total int64, fn func(done, total int64)) {
	c.progressTotal, c.progress = total, fn
}

// Claim atomically claims the next grains×Grain ranks. It returns
// false when the space is drained. Distinct consumers may claim with
// distinct multipliers (a device consumer amortizing launch overhead
// claims larger spans than a CPU worker).
func (c *Cursor) Claim(grains int64) (Tile, bool) {
	if grains < 1 {
		grains = 1
	}
	span := grains * c.src.grain
	lo := c.src.lo + c.next.Add(span) - span
	if lo >= c.src.hi {
		return Tile{}, false
	}
	hi := lo + span
	if hi > c.src.hi {
		hi = c.src.hi
	}
	c.m.tiles.Inc()
	c.m.ranks.Add(hi - lo)
	return Tile{Lo: lo, Hi: hi}, true
}

// Finish records items finished work units and fires the progress
// callback. Consume and Drain call it automatically; only consumers
// hand-rolling their own claim loop need to.
func (c *Cursor) Finish(items int64) {
	c.m.items.Add(items)
	done := c.done.Add(items)
	if c.progress != nil {
		c.progress(done, c.progressTotal)
	}
}

// Consume is a single consumer's claim loop: it claims grains×Grain
// ranks at a time and calls fn until the cursor drains, the context
// is cancelled, or fn fails. fn returns the number of finished work
// items the tile covered (for progress accounting; return t.Len() in
// flat spaces).
func (c *Cursor) Consume(ctx context.Context, grains int64, fn func(t Tile) (int64, error)) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t, ok := c.Claim(grains)
		if !ok {
			return nil
		}
		n, err := fn(t)
		if err != nil {
			return err
		}
		c.Finish(n)
	}
}

// Drain runs a pool of consumers goroutine consumers over the cursor,
// each executing fn for every tile it claims, until the space drains,
// ctx is cancelled, or a consumer fails; the first error wins, and a
// consumer's panic is raised again on the caller once all return. fn
// receives the consumer index (for per-consumer scratch) and returns
// the number of finished work items.
func (c *Cursor) Drain(ctx context.Context, consumers int, fn func(consumer int, t Tile) (int64, error)) error {
	if consumers < 1 {
		consumers = 1
	}
	var firstErr errOnce
	var g join.Group // a consumer's panic is raised again on the caller
	for w := 0; w < consumers; w++ {
		g.Go(func() {
			err := c.Consume(ctx, 1, func(t Tile) (int64, error) {
				return fn(w, t)
			})
			if err != nil {
				firstErr.set(err)
			}
		})
	}
	g.Wait()
	return firstErr.get()
}

// errOnce records the first error reported by any consumer.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
