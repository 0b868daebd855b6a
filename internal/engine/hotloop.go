package engine

import (
	"fmt"

	"trigene/internal/combin"
	"trigene/internal/sched"
)

// HotLoop exposes one consumer's steady-state claim→score step outside
// the worker pool, so tests and bench/ can measure the hot
// path directly: allocations per processed tile (which must be zero
// once warm) and tiles per second. It is not safe for concurrent use;
// Close returns the pooled scratch.
type HotLoop struct {
	flat    *flatWorker
	blocked *blockWorker
	src     sched.Source
	rm      runMetrics // resolved once; Process stays allocation-free
}

// NewHotLoop builds a single consumer for the configured approach over
// the full work space: combination-rank tiles for V1/V2, block-triple
// tiles for V3/V4.
func (s *Searcher) NewHotLoop(opts Options) (*HotLoop, error) {
	opts.Workers = 1
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	if o.Shard != nil || o.RankRange != nil || o.Tiles != nil {
		return nil, fmt.Errorf("engine: HotLoop probes the full space")
	}
	m := s.st.SNPs()
	rm := resolveRunMetrics(o.Metrics, o.Approach)
	switch o.Approach {
	case V1Naive, V2Split:
		fw := &flatWorker{o: &o, m: m, a: getArena(o.Objective, o.TopK, 0)}
		if o.Approach == V1Naive {
			fw.bin = s.st.Binarized()
		} else {
			fw.split = s.st.Split()
		}
		return &HotLoop{
			flat: fw,
			src:  sched.Flat(combin.Triples(m), 1),
			rm:   rm,
		}, nil
	default:
		bs, nb, src := s.blockSpace(&o)
		return &HotLoop{
			blocked: newBlockWorker(s, &o, bs, nb),
			src:     src,
			rm:      rm,
		}, nil
	}
}

// Tiles returns how many tiles the space holds.
func (h *HotLoop) Tiles() int64 {
	g := h.src.Grain()
	return (h.src.Ranks() + g - 1) / g
}

// Tile returns the i'th tile of the space.
func (h *HotLoop) Tile(i int64) sched.Tile {
	g := h.src.Grain()
	b := h.src.Bounds()
	lo := b.Lo + i*g
	hi := lo + g
	if hi > b.Hi {
		hi = b.Hi
	}
	return sched.Tile{Lo: lo, Hi: hi}
}

// Process runs the claim→score step for one tile and returns how many
// combinations it scored. After the first few tiles have warmed the
// top-K heap, Process performs zero heap allocations.
func (h *HotLoop) Process(t sched.Tile) int64 {
	if h.flat != nil {
		n := h.flat.tile(t)
		h.rm.observe(n, h.flat.a)
		return n
	}
	n := h.blocked.tile(t)
	h.rm.observe(n, h.blocked.a)
	return n
}

// Scored returns the cumulative combinations processed.
func (h *HotLoop) Scored() int64 {
	if h.flat != nil {
		return h.flat.a.scored
	}
	return h.blocked.a.scored
}

// Close releases the pooled scratch.
func (h *HotLoop) Close() {
	if h.flat != nil {
		h.flat.a.release()
		h.flat = nil
	}
	if h.blocked != nil {
		h.blocked.a.release()
		h.blocked = nil
	}
}
