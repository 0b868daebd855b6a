package engine

import (
	"fmt"

	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/sched"
)

// Seeded stage-2 mode: instead of (or alongside) the C(S,3) subset
// space, enumerate the (pair, third-SNP) extensions of a seed list of
// top pairs — every triple containing a seed pair. Each rank of the
// sched.SeededExtensions space is one (seed, third) candidate; the
// skip rules below are rank-local and deterministic, so the space
// shards exactly like any flat space.

// RunSeeded scores every extension of the seed pairs by a third SNP.
// Triples whose three SNPs all fall inside the survivor subset are
// skipped when inSubset is non-nil (the subset search already covers
// them), and a triple containing several seed pairs is charged to the
// earliest seed only, so no triple is scored twice. Candidates come
// back in original SNP indices. Options are interpreted as for Run;
// Shard slices the seeds×M extension-rank space.
func (s *Searcher) RunSeeded(seeds []Pair, inSubset []bool, opts Options) (*Result, error) {
	o, err := opts.withDefaults(s.st.Samples())
	if err != nil {
		return nil, err
	}
	m := s.st.SNPs()
	if inSubset != nil && len(inSubset) != m {
		return nil, fmt.Errorf("engine: subset mask covers %d SNPs, dataset has %d", len(inSubset), m)
	}
	for _, p := range seeds {
		if !(0 <= p.I && p.I < p.J && p.J < m) {
			return nil, fmt.Errorf("engine: invalid seed pair (%d,%d) for %d SNPs", p.I, p.J, m)
		}
	}
	sp, err := flatSpace(sched.SeededExtensions(len(seeds), m, o.Workers).Ranks(), &o, 3, "seeded")
	if err != nil {
		return nil, err
	}
	seedRank := seedRanks(seeds, m)
	return s.run(&o, sp, func(_ int, a *arena) tileFunc {
		return s.newSeededWorker(&o, a, seeds, seedRank, inSubset).tile
	})
}

// seedRanks resolves each seed pair (keyed I*m + J) to the earliest
// seed that generates it; built once per run, read-only across workers.
func seedRanks(seeds []Pair, m int) map[int64]int {
	seedRank := make(map[int64]int, len(seeds))
	for idx, p := range seeds {
		key := int64(p.I)*int64(m) + int64(p.J)
		if _, dup := seedRank[key]; !dup {
			seedRank[key] = idx
		}
	}
	return seedRank
}

// seededWorker is one consumer of the extension tile stream.
type seededWorker struct {
	o        *Options
	split    *dataset.Split
	m        int
	seeds    []Pair
	seedRank map[int64]int
	inSubset []bool
	a        *arena
}

// newSeededWorker builds a consumer over a pooled arena, sized for the
// two class-plane-sized seed blocks.
func (s *Searcher) newSeededWorker(o *Options, a *arena, seeds []Pair, seedRank map[int64]int, inSubset []bool) *seededWorker {
	split := s.st.Split()
	for class := range a.block {
		a.block[class].Init(split.Words[class], false)
	}
	return &seededWorker{o: o, split: split, m: s.st.SNPs(),
		seeds: seeds, seedRank: seedRank, inSubset: inSubset, a: a}
}

// tile scores the extensions with ranks in [t.Lo, t.Hi) and returns
// the tile length (skipped ranks do not count as combinations). Ranks
// run third-fastest, so a tile is a few runs over one seed each: the
// seed pair's PairBlock is built once per class at the head of a run
// and every third SNP of the run is one fused Accumulate per class
// against it — the triple kernel, with the seed as its cached (y, z).
func (w *seededWorker) tile(t sched.Tile) (int64, error) {
	obj := w.o.Objective
	split := w.split
	span := int64(w.m)
	raw, tab := &w.a.raw, &w.a.tab
	var scored int64
	for r := t.Lo; r < t.Hi; {
		sIdx := int(r / span)
		p := w.seeds[sIdx]
		for class := range w.a.block {
			w.a.block[class].Build(
				split.Plane(class, p.I, 0), split.Plane(class, p.I, 1),
				split.Plane(class, p.J, 0), split.Plane(class, p.J, 1))
		}
		for end := min(int64(sIdx+1)*span, t.Hi); r < end; r++ {
			third := int(r % span)
			if third == p.I || third == p.J {
				continue
			}
			tr, slot := extend(p, third)
			if w.inSubset != nil && w.inSubset[tr.I] && w.inSubset[tr.J] && w.inSubset[tr.K] {
				continue
			}
			if w.ownedByEarlierSeed(tr.I, tr.J, tr.K, sIdx) {
				continue
			}
			*raw = contingency.Table{}
			for class := range w.a.block {
				w.a.block[class].Accumulate(&raw.Counts[class],
					split.Plane(class, third, 0), split.Plane(class, third, 1))
			}
			// The kernel's rows are (third, p.I, p.J) genotypes; scores are
			// bit-equal to BuildReference's only when the objective sums
			// rows in sorted-triple order.
			perm := &seededPerm[slot]
			for class := range raw.Counts {
				for cell, src := range perm {
					tab.Counts[class][cell] = raw.Counts[class][src]
				}
				// Row 26 (2,2,2) is where every permutation leaves it, and
				// with it the NOR-derived planes' pad inflation.
				tab.Counts[class][contingency.Cells-1] -= int32(split.Pad[class])
			}
			w.a.top.Offer(tr.scored(obj.Score(tab)))
			scored++
		}
	}
	w.a.scored += scored
	return t.Len(), nil
}

// extend returns the sorted triple that seed pair p forms with a third
// SNP and the third's slot in it: 0 below p.I, 1 between, 2 above p.J.
func extend(p Pair, third int) (Triple, int) {
	switch {
	case third < p.I:
		return Triple{I: third, J: p.I, K: p.J}, 0
	case third < p.J:
		return Triple{I: p.I, J: third, K: p.J}, 1
	}
	return Triple{I: p.I, J: p.J, K: third}, 2
}

// seededPerm[slot][cell] is the kernel row (third genotype major, then
// p.I, then p.J) that holds sorted-triple row cell when the third SNP
// sorts into slot.
var seededPerm = func() (perm [3][contingency.Cells]uint8) {
	for gt := 0; gt < 3; gt++ {
		for gi := 0; gi < 3; gi++ {
			for gj := 0; gj < 3; gj++ {
				src := uint8(contingency.ComboIndex(gt, gi, gj))
				perm[0][contingency.ComboIndex(gt, gi, gj)] = src
				perm[1][contingency.ComboIndex(gi, gt, gj)] = src
				perm[2][contingency.ComboIndex(gi, gj, gt)] = src
			}
		}
	}
	return perm
}()

// ownedByEarlierSeed reports whether another of the triple's pairs is
// a seed with a smaller index than cur — the canonical-owner dedup
// that keeps each triple scored exactly once across the seed list.
func (w *seededWorker) ownedByEarlierSeed(i, j, k, cur int) bool {
	span := int64(w.m)
	for _, key := range [3]int64{
		int64(i)*span + int64(j),
		int64(i)*span + int64(k),
		int64(j)*span + int64(k),
	} {
		if idx, ok := w.seedRank[key]; ok && idx < cur {
			return true
		}
	}
	return false
}
