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
	lanesPass
	m        int
	seeds    []Pair
	seedRank map[int64]int
	inSubset []bool
	// seedFor is the seed pair whose table and lane list the arena holds
	// for this run (nil: none yet). It lives here, not in the pooled
	// arena, so no run reads another's, as blockWorker's listFor does.
	seedFor *Pair
}

// newSeededWorker builds a consumer over a pooled arena.
func (s *Searcher) newSeededWorker(o *Options, a *arena, seeds []Pair, seedRank map[int64]int, inSubset []bool) *seededWorker {
	return &seededWorker{lanesPass: s.newLanesPass(o, a), m: s.st.SNPs(), seeds: seeds, seedRank: seedRank, inSubset: inSubset}
}

// tile scores the extensions with ranks in [t.Lo, t.Hi) and returns
// the tile length (skipped ranks do not count as combinations). Ranks
// run third-fastest, so a tile is a few runs over one seed each: at the
// head of a run, unless the arena holds them for this seed pair already,
// PairLanes puts the seed pair's table in lane 0 of the arena's first yz
// table, once per class, and the arena's lane list is set to the seed
// pair: SNPs p.I and p.J in slots 0 and 1, one pair whose (y, z) table is
// lane 0 of the first yz table. The run's third SNPs go through the lanes
// pass eight at a time, the seed as every lane's (y, z). A chunk of
// thirds ends at p.I, at p.J, at the end of the run and at the end of the
// tile, so its thirds are consecutive SNPs — one x tile — and all sort
// into the same slot of their triples.
func (w *seededWorker) tile(t sched.Tile) (int64, error) {
	split, k, a := w.split, w.lanes, w.a
	span := int64(w.m)
	var scored int64
	for r := t.Lo; r < t.Hi; {
		sIdx := int(r / span)
		p := w.seeds[sIdx]
		if w.seedFor != &w.seeds[sIdx] {
			for class, words := range split.Words {
				k.PairLanes(&a.yz[class][0], split.ClassPlaneData(class), words, p.I, 1, p.J, w.marg[class], int32(split.N[class]))
			}
			l := &a.list
			l.Reset()
			l.AddSNP(p.I)
			l.AddSNP(p.J)
			l.AddPair(0, 1, 0, 0)
			w.seedFor = &w.seeds[sIdx]
		}
		for end := min(int64(sIdx+1)*span, t.Hi); r < end; {
			third := int(r % span)
			if third == p.I || third == p.J {
				r++
				continue
			}
			_, slot := extend(p, third)
			n := min(end-r, contingency.Lanes, int64([3]int{p.I, p.J, w.m}[slot]-third))
			scored += w.chunk(p, sIdx, third, int(n), slot)
			r += n
		}
	}
	a.scored += scored
	return t.Len(), nil
}

// chunk scores the n extensions of seed p (index sIdx) by the third SNPs
// x, x+1, ..., one per lane, which sort into slot, and returns how many it
// counts. A lane whose triple lies wholly inside the subset, or belongs to
// an earlier seed, is scored with the rest but neither offered nor
// counted, and a chunk of such lanes alone is skipped. The arena holds
// the seed pair's table and lane list (tile). Per class, each word tile
// is transposed and goes through LaneKernel.Block, which counts it
// against p.I, p.J and the pair and, on the last tile, derives the
// table; the kernel's rows are (third, p.I, p.J) genotypes, so the rows
// are then permuted into sorted-triple order as whole lane vectors —
// scores are bit-equal to BuildReference's only when the objective sums
// rows in that order.
func (w *seededWorker) chunk(p Pair, sIdx, x, n, slot int) int64 {
	var live [contingency.Lanes]bool
	var count int64
	for lane := range live[:n] {
		tr, _ := extend(p, x+lane)
		if live[lane] = !w.skipped(tr, sIdx); live[lane] {
			count++
		}
	}
	if count == 0 {
		return 0
	}
	split, k, a, bw := w.split, w.lanes, w.a, w.o.BlockWords
	l := &a.list
	for class, words := range split.Words {
		data := split.ClassPlaneData(class)
		for w0 := 0; w0 < words; w0 += bw {
			w1 := min(w0+bw, words)
			contingency.TransposeLanes(a.xt, data[x*2*words:(x+n)*2*words], words, w0, w1)
			k.Block(a.bank[class][:1], a.xc, l, a.xt, data, words, w0, w1, w.marg[class][x:x+n], a.yz[class][:1])
		}
		lt := &a.bank[class][0]
		for cell, src := range &seededPerm[slot] {
			a.bank[class][1][cell] = lt[src]
		}
	}
	a.valid[0] = uint8(n)
	if w.nextGroup(a.bank[dataset.Control][1:2], a.bank[dataset.Case][1:2], a.valid[:1], contingency.Cells, a.top.bound()) == 0 {
		for lane, ok := range live[:n] {
			if ok {
				tr, _ := extend(p, x+lane)
				a.top.Offer(tr.scored(a.laneScore[lane]))
			}
		}
	}
	return count
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
// sorts into slot. Slot 0 is the identity.
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

// skipped reports whether the triple lies wholly inside the subset, which
// the subset search covers, or another of its pairs is a seed with a
// smaller index than cur — the canonical-owner dedup that keeps each
// triple scored exactly once across the seed list.
func (w *seededWorker) skipped(tr Triple, cur int) bool {
	if w.inSubset != nil && w.inSubset[tr.I] && w.inSubset[tr.J] && w.inSubset[tr.K] {
		return true
	}
	span := int64(w.m)
	for _, key := range [3]int64{
		int64(tr.I)*span + int64(tr.J),
		int64(tr.I)*span + int64(tr.K),
		int64(tr.J)*span + int64(tr.K),
	} {
		if idx, ok := w.seedRank[key]; ok && idx < cur {
			return true
		}
	}
	return false
}
