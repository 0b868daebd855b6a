// Bit-plane permutation kernel: the blocked, allocation-free engine
// behind KAll/KAllRange. Relabelings are drawn straight into case bit
// planes (casePlane: a vector fill, then flips to the exact case count,
// eight draws a vector) and counted by sample, not by plane: a worker
// draws a block of B of them, 64 at a time, and transposes each 64 x 64
// bit tile into sample rows (eight tiles at a time from the planes' cache
// lines), so row s holds one bit per permutation of the block — whether
// sample s is a case in it. A candidate keeps, per cell
// of its 3^k genotype combinations, the list of its samples' rows; the
// cell's case count in every permutation of the block is then the number
// of set bits each bit position has across those rows, which a
// bit-sliced counter adds up for 512 permutations per vector with
// carry-save steps (cellCounts). Controls are the cell's total minus its
// cases. Every sample row is read once per candidate per block, whatever
// the permutations do with it.
//
// The counts come out as lane tables, one per group of eight
// permutations, and are scored as today. Under K2 at orders 2–3 a group
// goes through score.K2Objective.ScoreLanesStop with the observed score
// as bound: it gives each lane's exact score, or — once every lane's
// row-order partial sum is above the bound — partial sums above it.
// Every row term is ≥ +0 (TestK2TermsNeverNegative), so such a table
// cannot score the observed value or better, and a permuted table is a
// hit iff its score is ≤ the observed one: the contract is the hit test.
// The early exit lives in scoring, where the rows it skips are row terms
// and their three ln(n!) lookups. Orders 4–7 under K2 sum their terms the
// same way, a permutation at a time, and stop there too; MI and Gini have
// no such bound (MI is not a row sum) and score each table whole. The
// observed scores come through the same counter, the real phenotype
// being one more case plane.
//
// Block size: B is the largest multiple of 64, at most 512, whose sample
// rows fit blockBudget per worker (256 permutations at 16384 samples, 512
// at 8192 and below), and no more than a worker's share of the range,
// rounded up to 64, so that small ranges still spread over the workers.
// A block's row of B/64 words is counted in chunks of 8, 4, 2 or 1
// words; the counter packs 8/w rows of a w-word chunk into one 512-bit
// vector and folds their counts together when it reads them out. The
// scratch — rows, the 64 drawn planes, a chunk's lane tables — is pooled.
//
// Determinism contract: permutation p of a seed is casePlane(seed, p) —
// exactly the scalar reference path — so hit counts are bit-identical
// to K for any worker count and any decomposition of the permutation
// range (which is what lets the cluster merge KAllRange tiles into
// p-values bit-exact with a single-node run). Scores do not depend on
// which block or chunk a permutation was counted in, so the block size
// does not move a hit either.
package permtest

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"trigene/internal/bitvec"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/join"
	"trigene/internal/score"
)

// blockBudget bounds the sample rows of a worker's block: B·N/8 bytes.
const blockBudget = 512 << 10

// tableBudget bounds a chunk's lane tables (cases and controls): wide
// chunks are cut narrower for candidates with many cells.
const tableBudget = 256 << 10

// blockPerms is the block size B for n samples and a range of count
// permutations over workers workers (the package comment has the rule).
func blockPerms(n, count, workers int) int {
	b := min(512, blockBudget*8/max(n, 1)/64*64)
	share := (count + workers - 1) / workers
	return max(64, min(b, (share+63)/64*64))
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
	// Rows is what the range's permutations scored of the candidates'
	// tables. It is for observability only: it is not part of the
	// cluster wire format and nothing the test reports depends on it.
	Rows RowTally
}

// RowTally counts contingency-table rows: Counted is how many rows were
// scored, Total how many a score of every row of every permuted table
// would have taken. Under K2 a group of eight permuted tables is scored
// up to the row after which every one of them is above the observed
// score (all of them, if that never happens), and that row counts for
// each of the eight; MI and Gini score every row.
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

// planeCand is one candidate's kernel state.
type planeCand struct {
	cells int  // 3^k
	lanes bool // K2 at orders 2–3: scored as lane tables
	// samples holds, cell after cell, the samples of each cell: cell c's
	// are samples[first[c]:][:totals[c]], padded to a multiple of offsPad
	// with the zero row's sample, 64·words.
	samples []int32
	first   []int32
	totals  []int32
	obs     float64
}

// cell returns the samples of cell c, its padding within capacity.
func (cand *planeCand) cell(c int) []int32 {
	lo := int(cand.first[c])
	n := int(cand.totals[c])
	return cand.samples[lo : lo+n : lo+(n+offsPad-1)/offsPad*offsPad]
}

// tableRows is how many rows a group's lane table has: 27 for a lane
// scored candidate (a pair's cells 9..26 stay empty), its cells else.
func (cand *planeCand) tableRows() int {
	if cand.lanes {
		return contingency.Cells
	}
	return cand.cells
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
// It is Prepare and Range in one call.
func KAllRange(planes *dataset.SNPPlanes, candidates [][]int, offset, count int, cfg Config) (*RangeResult, error) {
	if err := checkRange(offset, count); err != nil {
		return nil, err
	}
	p, err := Prepare(planes, candidates, cfg)
	if err != nil {
		return nil, err
	}
	return p.Range(offset, count, cfg)
}

func checkRange(offset, count int) error {
	if offset < 0 || count < 1 {
		return fmt.Errorf("permtest: invalid permutation range [%d,%d)", offset, offset+count)
	}
	return nil
}

// Prepared is a candidate set made ready for the kernel over one
// dataset's planes: each candidate's cells as lists of samples, and its
// observed score. Making it reads every sample of every candidate; a
// caller that tests the same candidates over many ranges — a cluster
// worker runs one per tile of a job — keeps it and calls Range per range.
// It is safe for concurrent use.
type Prepared struct {
	n, words, nCases int
	obj              score.Objective
	cands            []planeCand
}

// Prepare lists the candidates' cells and scores them on the real
// phenotypes with cfg's objective, which every Range of the result uses;
// the work is shared out over cfg.Workers. What it reads of the dataset is
// what KAll does.
func Prepare(planes *dataset.SNPPlanes, candidates [][]int, cfg Config) (*Prepared, error) {
	c, err := cfg.withDefaults(planes.N)
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("permtest: no candidates")
	}
	p := &Prepared{
		n:      planes.N,
		words:  planes.Words,
		nCases: planes.Phen.OnesCount(),
		obj:    c.Objective,
		cands:  make([]planeCand, len(candidates)),
	}
	cs := newCellScore(c.Objective)
	for i, snps := range candidates {
		if err := checkCand(planes, snps, cs, &p.cands[i]); err != nil {
			return nil, err
		}
	}

	// The observed tables come through the kernel's own count and score
	// code: the real phenotype is one more case plane, counted in a block
	// one word wide.
	lay := p.layout(64)
	workers := min(c.Workers, len(candidates))
	var g join.Group
	for w := 0; w < workers; w++ {
		g.Go(func() {
			ps := getScratch(c, lay, len(p.cands))
			defer scratchPool.Put(ps)
			copy(ps.slab, planes.Phen.Words())
			transpose(ps.rows, lay.r, 0, ps.slab, lay.words, ps.vector)
			for i := w; i < len(candidates); i += workers {
				cand := &p.cands[i]
				buildCand(planes, candidates[i], cand)
				ps.count(cand, 0, 1)
				cand.obs = ps.observed(cand)
			}
		})
	}
	g.Wait()
	return p, nil
}

// Range runs the kernel over permutation indices [offset, offset+count),
// as KAllRange does. The Config's Permutations and Objective are
// ignored: the range arguments govern, and the objective is the one the
// candidates were prepared with.
func (p *Prepared) Range(offset, count int, cfg Config) (*RangeResult, error) {
	if err := checkRange(offset, count); err != nil {
		return nil, err
	}
	cfg.Objective = p.obj
	c, err := cfg.withDefaults(p.n)
	if err != nil {
		return nil, err
	}
	lay := p.layout(blockPerms(p.n, count, c.Workers))
	hitsPer := make([][]int, c.Workers)
	rowsPer := make([]int64, c.Workers)
	var next atomic.Int64 // first unclaimed permutation of the range, less offset
	var g join.Group
	for w := 0; w < c.Workers; w++ {
		g.Go(func() {
			ps := getScratch(c, lay, len(p.cands))
			defer scratchPool.Put(ps)
			hitsPer[w] = append([]int(nil), ps.permWorker(c, p.cands, p.n, p.nCases, offset, count, &next)...)
			rowsPer[w] = ps.scored
		})
	}
	g.Wait()
	if err := c.Context.Err(); err != nil {
		return nil, err
	}

	rr := &RangeResult{
		Observed: make([]float64, len(p.cands)),
		Hits:     make([]int, len(p.cands)),
		Count:    count,
	}
	for i := range p.cands {
		rr.Observed[i] = p.cands[i].obs
		rr.Rows.Total += int64(count) * int64(p.cands[i].cells)
	}
	for w, hits := range hitsPer {
		for i, h := range hits {
			rr.Hits[i] += h
		}
		rr.Rows.Counted += rowsPer[w]
	}
	return rr, nil
}

// layout is the layout of blocks of perms permutations for the
// candidates: chunks no wider than a row, and narrower while a chunk's
// lane tables (cases and controls) for the candidate with the most rows
// would not fit tableBudget, down to one word.
func (p *Prepared) layout(perms int) *layout {
	lay := &layout{words: p.words, r: perms / 64}
	for i := range p.cands {
		lay.rows = max(lay.rows, p.cands[i].tableRows())
	}
	for _, w := range chunkWidths {
		if w <= lay.r && (2*8*w*lay.rows*32 <= tableBudget || w == 1) {
			lay.wide = w
			break
		}
	}
	lay.chunks = chunksOf(lay.r, lay.wide)
	return lay
}

// layout is the shape of a call's blocks and what its candidates need
// of a worker's scratch.
type layout struct {
	words, r int // plane words, block row words (B/64)
	// chunks are the [first word, width] pieces a block row is counted
	// in, all at most wide words wide.
	chunks [][2]int
	wide   int
	rows   int // lane-table rows per group, the most any candidate has
}

// zeroRow is the sample of the block's zero row, past the rows of every
// plane word's 64 samples: the one the candidates' lists are padded with.
func (lay *layout) zeroRow() int { return 64 * lay.words }

// chunksOf cuts a row of r words into [first word, width] chunks of
// chunkWidths, widest first, none wider than wide.
func chunksOf(r, wide int) (chunks [][2]int) {
	for j0 := 0; j0 < r; {
		for _, w := range chunkWidths {
			if w <= wide && w <= r-j0 {
				chunks = append(chunks, [2]int{j0, w})
				j0 += w
				break
			}
		}
	}
	return chunks
}

// checkCand validates one candidate and sets its shape.
func checkCand(planes *dataset.SNPPlanes, snps []int, cs *cellScore, out *planeCand) error {
	if err := checkCombo(planes.M, snps); err != nil {
		return err
	}
	for _, snp := range snps {
		if planes.Plane(snp, 0) == nil {
			return fmt.Errorf("permtest: the planes given do not hold SNP %d of candidate %v", snp, snps)
		}
	}
	out.cells = contingency.CellsK(len(snps))
	out.lanes = cs.k2 != nil && out.cells <= contingency.Cells
	return nil
}

// buildCand lists each cell's samples of a checked candidate: cell c
// holds the samples set in the AND of one genotype plane per SNP, the
// digit order that of contingency.ComboIndex/PairComboIndex (first SNP is
// the most significant base-3 digit). Genotype planes are tail-clean, so
// the pad samples fall in no cell.
func buildCand(planes *dataset.SNPPlanes, snps []int, out *planeCand) {
	k, cells, words := len(snps), out.cells, planes.Words
	out.first = make([]int32, cells)
	out.totals = make([]int32, cells)

	// Two passes over the cells' combo planes: the totals size the list,
	// then the set bits of each plane fill it.
	combos := make([]uint64, cells*words)
	pow := cells / 3
	size := 0
	for cell := 0; cell < cells; cell++ {
		combo := combos[cell*words : (cell+1)*words]
		copy(combo, planes.Plane(snps[0], cell/pow))
		rem, div := cell%pow, pow/3
		for d := 1; d < k; d++ {
			p := planes.Plane(snps[d], rem/div)
			for i := range combo {
				combo[i] &= p[i]
			}
			rem, div = rem%div, div/3
		}
		n := bitvec.PopCount(combo)
		out.first[cell] = int32(size)
		out.totals[cell] = int32(n)
		size += (n + offsPad - 1) / offsPad * offsPad
	}
	out.samples = make([]int32, size+4)[:size]
	zero := int32(64 * words) // layout.zeroRow
	for cell := 0; cell < cells; cell++ {
		samples := out.samples[out.first[cell] : size+4]
		i := listSamples(samples, combos[cell*words:(cell+1)*words])
		for ; i%offsPad != 0; i++ {
			samples[i] = zero
		}
	}
}

// listSamples writes the samples set in combo to dst, in order, and
// returns how many there are. A word's first four go out
// unconditionally, whatever its weight — most words of a cell's plane
// hold a few samples, and a branch per sample would mispredict on each
// word's last — so dst needs four entries of slack past them; what lands
// there is overwritten after.
func listSamples(dst []int32, combo []uint64) int {
	i := 0
	for w, v := range combo {
		base := int32(64 * w)
		o := dst[i : i+4 : i+4]
		o[0] = base + int32(bits.TrailingZeros64(v))
		v &= v - 1
		o[1] = base + int32(bits.TrailingZeros64(v))
		v &= v - 1
		o[2] = base + int32(bits.TrailingZeros64(v))
		v &= v - 1
		o[3] = base + int32(bits.TrailingZeros64(v))
		v &= v - 1
		for j := i + 4; v != 0; j++ {
			dst[j] = base + int32(bits.TrailingZeros64(v))
			v &= v - 1
		}
		i += bits.OnesCount64(combo[w])
	}
	return i
}

// permScratch is one worker's preallocated state: the block's sample
// rows, the 64 case planes drawn at a time, one chunk's lane tables, the
// counter's scratch and the scoring slices. Everything the steady-state
// loop touches lives here, so the loop itself is allocation-free.
type permScratch struct {
	lay         *layout
	rows        []uint64   // (64·words + 1)·r: the block's rows and a zero row
	slab        []uint64   // 64 case planes, slabStride(words) apart
	cases, ctrl [][8]int32 // a chunk's lane tables, 8·wide groups of lay.rows rows
	ctr         []uint64   // the counter's levels
	cnt, ctl    []int32    // one permuted table's cases and controls
	dst         [contingency.Lanes]float64
	hits        []int
	scored      int64 // table rows scored for the permutations drawn
	cs          *cellScore
	vector      bool
}

// scratchPool holds worker scratch between calls: a block is hundreds
// of KiB, and a cluster worker runs one call per tile.
var scratchPool sync.Pool

// getScratch takes a worker's scratch from the pool, sized for the call.
func getScratch(c Config, lay *layout, nCands int) *permScratch {
	ps, _ := scratchPool.Get().(*permScratch)
	if ps == nil {
		ps = new(permScratch)
	}
	ps.lay = lay
	ps.rows = grow(ps.rows, (64*lay.words+1)*lay.r)
	clear(ps.rows[lay.zeroRow()*lay.r:])
	ps.slab = grow(ps.slab, 64*slabStride(lay.words))
	ps.cases = grow(ps.cases, 8*lay.wide*lay.rows)
	ps.ctrl = grow(ps.ctrl, 8*lay.wide*lay.rows)
	ps.ctr = grow(ps.ctr, ctrLevels*8)
	ps.cnt = grow(ps.cnt, lay.rows)
	ps.ctl = grow(ps.ctl, lay.rows)
	ps.hits = grow(ps.hits, nCands)
	ps.cs = newCellScore(c.Objective)
	ps.vector = contingency.HasAVX512()
	return ps
}

// grow returns s resized to n, reusing its array when it is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// permWorker runs one worker: claim the next unclaimed block of the
// permutation range, draw and transpose its case planes, count and score
// them against every candidate, until the range is spent. Claiming
// instead of striding keeps a call's time at work over total speed when
// one core runs slower than another; which worker draws a permutation
// does not matter to the sums. The returned slice is ps.hits —
// per-candidate as-good-or-better counts for the blocks this worker
// claimed; ps.scored holds the rows they scored.
func (ps *permScratch) permWorker(c Config, cands []planeCand, n, nCases, offset, count int, next *atomic.Int64) []int {
	clear(ps.hits)
	ps.scored = 0
	lay := ps.lay
	words, block := lay.words, 64*lay.r
	stride := slabStride(words)
	for c.Context.Err() == nil {
		lo := int(next.Add(int64(block))) - block
		if lo >= count {
			break
		}
		nb := min(block, count-lo)
		for j := 0; 64*j < nb; j++ {
			for p := 0; p < min(64, nb-64*j); p++ {
				casePlane(ps.slab[p*stride:p*stride+words], n, nCases, c.Seed, offset+lo+64*j+p)
			}
			transpose(ps.rows, lay.r, j, ps.slab, words, ps.vector)
		}
		for _, ch := range lay.chunks {
			j0, w := ch[0], ch[1]
			if 64*j0 >= nb {
				break
			}
			for ci := range cands {
				ps.count(&cands[ci], j0, w)
				ps.hits[ci] += ps.score(&cands[ci], min(64*w, nb-64*j0))
			}
		}
	}
	return ps.hits
}

// count fills the chunk's lane tables with the candidate's counts: cell
// c of group g in row g·tableRows + c.
func (ps *permScratch) count(cand *planeCand, j0, w int) {
	gs := cand.tableRows()
	rows := ps.rows[j0:]
	for c := 0; c < cand.cells; c++ {
		cellCounts(ps.cases[c:], ps.ctrl[c:], gs, rows, cand.cell(c), ps.lay.r, w, ps.ctr, ps.vector)
	}
	if gs > cand.cells { // a pair in 27-row tables: rows 9..26 are empty
		for g := 0; g < 8*w; g++ {
			clear(ps.cases[g*gs+cand.cells : (g+1)*gs])
			clear(ps.ctrl[g*gs+cand.cells : (g+1)*gs])
		}
	}
}

// score scores the first nb permutations of the chunk and returns how
// many tie or beat the candidate's observed score.
func (ps *permScratch) score(cand *planeCand, nb int) (hits int) {
	if cand.lanes {
		return ps.scoreLanes(cand, nb)
	}
	for g := 0; 8*g < nb; g++ {
		valid := min(contingency.Lanes, nb-8*g)
		stop := 0
		for l := 0; l < valid; l++ {
			sc, rows := ps.scoreTable(cand, g, l, cand.obs)
			if ps.cs.hit(sc, cand.obs) {
				hits++
			}
			stop = max(stop, rows)
		}
		ps.scored += int64(valid * stop)
	}
	return hits
}

// scoreLanes is score for a K2 candidate of order 2 or 3: eight tables
// per ScoreLanesStop, bounded by the observed score.
func (ps *permScratch) scoreLanes(cand *planeCand, nb int) (hits int) {
	const gs = contingency.Cells
	for g := 0; 8*g < nb; g++ {
		valid := min(contingency.Lanes, nb-8*g)
		ctrl := (*contingency.LaneTable)(ps.ctrl[g*gs : (g+1)*gs])
		cases := (*contingency.LaneTable)(ps.cases[g*gs : (g+1)*gs])
		stop := ps.cs.k2.ScoreLanesStop(&ps.dst, ctrl, cases, cand.cells, valid, cand.obs)
		for _, sc := range ps.dst[:valid] {
			if ps.cs.hit(sc, cand.obs) {
				hits++
			}
		}
		if stop == 0 {
			stop = cand.cells
		}
		ps.scored += int64(valid * stop)
	}
	return hits
}

// observed scores lane 0 of the chunk's first group in full.
func (ps *permScratch) observed(cand *planeCand) float64 {
	sc, _ := ps.scoreTable(cand, 0, 0, math.NaN())
	return sc
}

// scoreTable scores the table of group g, lane l, and says how many rows
// it took. Under K2 the sum stops at the first row that takes it above
// bound (NaN: never), a table scoring above bound all the same; other
// objectives score every row.
func (ps *permScratch) scoreTable(cand *planeCand, g, l int, bound float64) (float64, int) {
	gs := cand.tableRows()
	cases, ctrl := ps.cnt[:cand.cells], ps.ctl[:cand.cells]
	for c := range cases {
		cases[c], ctrl[c] = ps.cases[g*gs+c][l], ps.ctrl[g*gs+c][l]
	}
	if ps.cs.k2 == nil || cand.lanes {
		return ps.cs.obj.ScoreCells(ctrl, cases), cand.cells
	}
	lf := ps.cs.k2.LnFact()
	sum := 0.0
	for c := range cases {
		sum += score.K2Term(lf, int(ctrl[c]), int(cases[c]))
		if sum > bound {
			return sum, c + 1
		}
	}
	return sum, cand.cells
}
