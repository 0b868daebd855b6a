// Bit-plane permutation kernel: the batched, allocation-free engine
// behind KAll/KAllRange. A candidate's 3^k genotype-combination cells
// are materialized once as combo bit planes (the AND of its per-SNP
// genotype planes), so re-scoring under a relabeled phenotype reduces
// to one popcount per cell: cases = popcount(comboPlane AND casePlane),
// controls = cellTotal − cases. Relabelings are drawn straight into
// case bit planes (casePlane) in batches, and the counting loop runs
// cells outer / batch inner, eight planes per pass of
// contingency.CountPlanes, so each combo plane is loaded once per
// eight permutations while the whole batch stays L1-resident.
//
// Under K2 the loop scores as it counts and gives up early. Each pass
// of eight planes carries one partial sum per lane; for every cell in
// row order a live pass is counted and each lane adds that row's
// score.K2Term — the expression, order and operands of the K2 score
// itself, so a lane that runs every row holds its table's Score to the
// bit. A permuted table is a hit iff its score is ≤ the observed one.
// Every row term is ≥ +0 (TestK2TermsNeverNegative), so a partial sum
// never decreases: once it is above the observed score the table cannot
// be a hit. A pass leaves the loop as soon as all of its lanes that hold
// permutations of the range are there; the planes behind a ragged last
// pass are counted but never read. The lanes of a stopped pass keep
// partial sums above the observed score and score no hit, which is
// what the full sum would have given. A cell no sample falls in counts
// no popcount at all: its cases are 0 and its term is exactly +0. MI and
// Gini have no such bound (MI is not a row sum); they count every row of
// the batch and score each table whole. The observed scores always come
// through that full count.
//
// Determinism contract: permutation p of a seed is casePlane(seed, p) —
// exactly the scalar reference path — so hit counts are bit-identical
// to K for any worker count and any decomposition of the permutation
// range (which is what lets the cluster merge KAllRange tiles into
// p-values bit-exact with a single-node run). Where a pass stops does
// not depend on the other passes of its batch, so batching does not
// move a hit either.
package permtest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"trigene/internal/bitvec"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/score"
)

// l1PermBudget is the cache footprint the batched counting loop aims
// for: one combo plane streaming against the resident case planes plus
// their rows of the count matrix, in a typical 32 KiB L1D. The constant
// is local so the kernel does not drag the planner in.
const l1PermBudget = 24 << 10

// batchSize is how many case planes a worker draws before counting
// them: the multiple of contingency.PlaneBatch that fits the L1 budget,
// at least one pass's worth.
func batchSize(words, cells int) int {
	const pass = contingency.PlaneBatch
	b := l1PermBudget / (words*8 + cells*4) / pass * pass
	if b < pass {
		b = pass
	}
	return b
}

// RangeResult is the raw outcome of KAllRange over a permutation index
// range: per-candidate observed scores and as-good-or-better hit counts
// for Count permutations. Ranges over disjoint index sets sum: the
// cluster coordinator adds Hits and Count across tiles and the result
// is bit-exact with a single-node run over the union.
type RangeResult struct {
	// Observed holds each candidate's score on the real phenotypes,
	// in candidate order.
	Observed []float64
	// Hits counts, per candidate, the permutations in the range whose
	// score ties or beats Observed.
	Hits []int
	// Count is the number of permutations evaluated (the range size).
	Count int
	// Rows is what the range's permutations counted of the candidates'
	// tables. It is for observability only: it is not part of the
	// cluster wire format and nothing the test reports depends on it.
	Rows RowTally
}

// RowTally counts contingency-table rows: Counted is how many rows the
// kernel counted (a popcount per permutation and row), Total how many a
// count of every row of every permuted table would have counted.
type RowTally struct {
	Counted, Total int64
}

// Results lowers the range into per-candidate Results, the range size
// standing for the permutation count.
func (rr *RangeResult) Results() []*Result {
	out := make([]*Result, len(rr.Hits))
	for i := range out {
		out[i] = newResult(rr.Observed[i], rr.Hits[i], rr.Count)
	}
	return out
}

// planeCand is one candidate's prebuilt kernel state.
type planeCand struct {
	cells  int
	planes []uint64 // cells combo planes, words each, contiguous
	totals []int32  // popcount per combo plane (cell sample totals)
	obs    float64
}

// KAll permutation-tests every candidate at once, sharing each drawn
// case plane across all of them. What it reads of the dataset is planes:
// its dimensions, the phenotype and the genotype planes of the SNPs the
// candidates name (dataset.BinarizeSNPs of a matrix, Select of a
// Binarized; more SNPs than those do no harm). Results are bit-identical
// to calling K on each candidate separately with the same Config.
// Candidates may mix orders 2 through contingency.MaxOrder.
func KAll(planes *dataset.SNPPlanes, candidates [][]int, cfg Config) ([]*Result, error) {
	c, err := cfg.withDefaults(planes.N)
	if err != nil {
		return nil, err
	}
	rr, err := KAllRange(planes, candidates, 0, c.Permutations, c)
	if err != nil {
		return nil, err
	}
	return rr.Results(), nil
}

// KAllRange runs the bit-plane kernel over permutation indices
// [offset, offset+count) only — the primitive a cluster tile executes.
// Config.Permutations is ignored; the range arguments govern. Because
// permutation p is keyed by its absolute index, any partition of an
// index range yields Hits that sum to the single-range result exactly.
func KAllRange(planes *dataset.SNPPlanes, candidates [][]int, offset, count int, cfg Config) (*RangeResult, error) {
	c, err := cfg.withDefaults(planes.N)
	if err != nil {
		return nil, err
	}
	if offset < 0 || count < 1 {
		return nil, fmt.Errorf("permtest: invalid permutation range [%d,%d)", offset, offset+count)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("permtest: no candidates")
	}
	cands := make([]planeCand, len(candidates))
	cs := newCellScore(c.Objective)
	maxCells := 0
	for i, snps := range candidates {
		if err := buildCand(planes, snps, cs, &cands[i]); err != nil {
			return nil, err
		}
		if cands[i].cells > maxCells {
			maxCells = cands[i].cells
		}
	}

	// The observed tables come through the kernel's own count and score
	// code: the real phenotype is one more case plane.
	ps := newPermScratch(c, len(cands), planes.Words, maxCells)
	copy(ps.planes, planes.Phen.Words())
	for i := range cands {
		ps.count(&cands[i], 1)
		cands[i].obs = ps.score(&cands[i], 0)
	}

	nCases := planes.Phen.OnesCount()
	hitsPer := make([][]int, c.Workers)
	rowsPer := make([]int64, c.Workers)
	var next atomic.Int64 // first unclaimed permutation of the range, less offset
	var wg sync.WaitGroup
	for w := 0; w < c.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := newPermScratch(c, len(cands), planes.Words, maxCells)
			hitsPer[w] = ps.permWorker(c, cands, planes.N, nCases, offset, count, &next)
			rowsPer[w] = ps.rows
		}()
	}
	wg.Wait()
	if err := c.Context.Err(); err != nil {
		return nil, err
	}

	rr := &RangeResult{
		Observed: make([]float64, len(cands)),
		Hits:     make([]int, len(cands)),
		Count:    count,
	}
	for i := range cands {
		rr.Observed[i] = cands[i].obs
		rr.Rows.Total += int64(count) * int64(cands[i].cells)
	}
	for w, hits := range hitsPer {
		for i, h := range hits {
			rr.Hits[i] += h
		}
		rr.Rows.Counted += rowsPer[w]
	}
	return rr, nil
}

// buildCand validates one candidate and materializes its combo planes
// and cell totals.
func buildCand(planes *dataset.SNPPlanes, snps []int, cs *cellScore, out *planeCand) error {
	if err := checkCombo(planes.M, snps); err != nil {
		return err
	}
	k := len(snps)
	if err := cs.check(k); err != nil {
		return err
	}
	for _, snp := range snps {
		if planes.Plane(snp, 0) == nil {
			return fmt.Errorf("permtest: the planes given do not hold SNP %d of candidate %v", snp, snps)
		}
	}
	cells := contingency.CellsK(k)
	words := planes.Words
	out.cells = cells
	out.planes = make([]uint64, cells*words)
	out.totals = make([]int32, cells)

	// Cell c's combo plane is the AND of one genotype plane per SNP;
	// the digit order matches contingency.ComboIndex/PairComboIndex
	// (first SNP is the most significant base-3 digit). Genotype
	// planes are tail-clean, so the ANDs are too.
	pow := cells / 3
	for cell := 0; cell < cells; cell++ {
		dst := out.planes[cell*words : (cell+1)*words]
		copy(dst, planes.Plane(snps[0], cell/pow))
		rem, div := cell%pow, pow/3
		for d := 1; d < k; d++ {
			p := planes.Plane(snps[d], rem/div)
			for i := range dst {
				dst[i] &= p[i]
			}
			rem, div = rem%div, div/3
		}
		out.totals[cell] = int32(bitvec.PopCount(dst))
	}
	return nil
}

// permScratch is one worker's preallocated state: the batch of case
// planes, the batch × cells count matrix, K2's per-lane partial sums and
// live passes, and the scoring slices. Everything the steady-state loop
// touches lives here, so the loop itself is allocation-free.
type permScratch struct {
	words  int
	planes []uint64 // batch case planes, words each
	cnt    []int32  // batch rows of maxCells case counts
	ctrl   []int32
	part   []float64 // K2: each plane's row-order partial sum
	live   []int     // K2: first plane of each pass still counting
	hits   []int
	rows   int64 // table rows counted for the permutations drawn
	cs     *cellScore
}

func newPermScratch(c Config, nCands, words, maxCells int) *permScratch {
	batch := batchSize(words, maxCells)
	return &permScratch{
		words:  words,
		planes: make([]uint64, batch*words),
		cnt:    make([]int32, batch*maxCells),
		ctrl:   make([]int32, maxCells),
		part:   make([]float64, batch),
		live:   make([]int, 0, batch/contingency.PlaneBatch),
		hits:   make([]int, nCands),
		cs:     newCellScore(c.Objective),
	}
}

// permWorker runs one worker: claim the next unclaimed batch of the
// permutation range, draw its case planes, count and score them against
// every candidate, until the range is spent. Claiming instead of
// striding keeps a call's time at work over total speed when one core
// runs slower than another; which worker draws a permutation does not
// matter to the sums. The returned slice is ps.hits — per-candidate
// as-good-or-better counts for the batches this worker claimed; ps.rows
// holds the rows they counted.
func (ps *permScratch) permWorker(c Config, cands []planeCand, n, nCases, offset, count int, next *atomic.Int64) []int {
	clear(ps.hits)
	ps.rows = 0
	words := ps.words
	batch := len(ps.planes) / words
	for c.Context.Err() == nil {
		lo := int(next.Add(int64(batch))) - batch
		if lo >= count {
			break
		}
		nb := min(batch, count-lo)
		for b := 0; b < nb; b++ {
			casePlane(ps.planes[b*words:(b+1)*words], n, nCases, c.Seed, offset+lo+b)
		}
		ps.flush(cands, nb)
	}
	return ps.hits
}

// flush counts and scores the nb accumulated case planes against every
// candidate.
func (ps *permScratch) flush(cands []planeCand, nb int) {
	for ci := range cands {
		cand := &cands[ci]
		if ps.cs.lf != nil {
			ps.hits[ci] += ps.countK2(cand, nb)
			continue
		}
		ps.rows += int64(nb * ps.count(cand, nb))
		for b := 0; b < nb; b++ {
			if ps.cs.hit(ps.score(cand, b), cand.obs) {
				ps.hits[ci]++
			}
		}
	}
}

// count fills rows 0..nb-1 of the count matrix with the candidate's
// per-cell case counts and returns how many cells it popcounted. Cells
// outer, batch inner: one combo plane streams against the resident
// batch, a pass of PlaneBatch planes at a time. A cell no sample falls
// in has no cases and is not counted. A ragged last pass also counts
// the stale planes behind nb; their rows are never scored.
func (ps *permScratch) count(cand *planeCand, nb int) (counted int) {
	const pass = contingency.PlaneBatch
	words, cells := ps.words, cand.cells
	var c [pass]int32
	for cell := 0; cell < cells; cell++ {
		if cand.totals[cell] == 0 {
			for b := 0; b < nb; b++ {
				ps.cnt[b*cells+cell] = 0
			}
			continue
		}
		counted++
		combo := cand.planes[cell*words : (cell+1)*words]
		for b := 0; b < nb; b += pass {
			contingency.CountPlanes(&c, combo, ps.planes[b*words:(b+pass)*words])
			for i, v := range c {
				ps.cnt[(b+i)*cells+cell] = v
			}
		}
	}
	return counted
}

// countK2 counts and scores the nb planes against a K2 candidate row by
// row and returns how many tie or beat its observed score. A pass of
// PlaneBatch planes stops counting once every one of its planes below nb
// has a partial sum above the observed score (the package comment has
// why that is exact).
func (ps *permScratch) countK2(cand *planeCand, nb int) (hits int) {
	const pass = contingency.PlaneBatch
	words, lf, obs := ps.words, ps.cs.lf, cand.obs
	part := ps.part[:nb]
	clear(part)
	live := ps.live[:0]
	for b := 0; b < nb; b += pass {
		live = append(live, b)
	}
	var c [pass]int32
	for cell := 0; cell < cand.cells && len(live) > 0; cell++ {
		total := cand.totals[cell]
		if total == 0 {
			continue // no cases in any plane: the term is exactly +0
		}
		combo := cand.planes[cell*words : (cell+1)*words]
		kept := live[:0]
		for _, b := range live {
			contingency.CountPlanes(&c, combo, ps.planes[b*words:(b+pass)*words])
			lanes := part[b:min(b+pass, nb)]
			going := false
			for i, s := range lanes {
				s += score.K2Term(lf, int(total-c[i]), int(c[i]))
				lanes[i] = s
				going = going || !(s > obs)
			}
			ps.rows += int64(len(lanes))
			if going {
				kept = append(kept, b)
			}
		}
		live = kept
	}
	for _, s := range part {
		if ps.cs.hit(s, obs) {
			hits++
		}
	}
	return hits
}

// score scores row b of the count matrix: controls are the cell totals
// minus the cases.
func (ps *permScratch) score(cand *planeCand, b int) float64 {
	cases := ps.cnt[b*cand.cells : (b+1)*cand.cells]
	ctrl := ps.ctrl[:cand.cells]
	for cell, cs := range cases {
		ctrl[cell] = cand.totals[cell] - cs
	}
	return ps.cs.score(ctrl, cases)
}
