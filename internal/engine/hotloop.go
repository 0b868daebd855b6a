package engine

import (
	"fmt"

	"trigene/internal/sched"
)

// HotLoop exposes one consumer's steady-state claim→score step outside
// the worker pool, so tests and bench/ can measure the hot
// path directly: allocations per processed tile (which must be zero
// once warm) and tiles per second. It is not safe for concurrent use;
// Close returns the pooled scratch.
type HotLoop struct {
	w   worker
	src sched.Source
	rm  runMetrics // resolved once; Process stays allocation-free
}

// NewHotLoop builds a single consumer for the configured approach over
// the full work space: combination-rank tiles for V2, block-triple tiles
// for V3F/V4F.
func (s *Searcher) NewHotLoop(opts Options) (*HotLoop, error) {
	if opts.Shard != nil || opts.Tiles != nil {
		return nil, fmt.Errorf("engine: HotLoop probes the full space")
	}
	opts.Workers = 1
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	sp, body, err := s.triples(&o)
	if err != nil {
		return nil, err
	}
	a := getArena(o.Objective, o.TopK)
	return &HotLoop{w: worker{a: a, tile: body(0, a)}, src: sp.src, rm: resolveRunMetrics(o.Metrics, sp.approach)}, nil
}

// Tiles returns how many tiles the space holds.
func (h *HotLoop) Tiles() int64 {
	g := h.src.Grain()
	return (h.src.Ranks() + g - 1) / g
}

// Tile returns the i'th tile of the space.
func (h *HotLoop) Tile(i int64) sched.Tile {
	g, b := h.src.Grain(), h.src.Bounds()
	lo := b.Lo + i*g
	return sched.Tile{Lo: lo, Hi: min(lo+g, b.Hi)}
}

// Process runs the claim→score step for one tile and returns how many
// combinations it scored. After the first few tiles have warmed the
// top-K heap, Process performs zero heap allocations.
func (h *HotLoop) Process(t sched.Tile) int64 {
	n, _ := h.w.process(t, &h.rm) // the order-3 bodies never fail
	return n
}

// Scored returns the cumulative combinations processed.
func (h *HotLoop) Scored() int64 { return h.w.a.scored }

// Close releases the pooled scratch.
func (h *HotLoop) Close() {
	if h.w.a != nil {
		h.w.a.release()
		h.w.a = nil
	}
}
