// Package permtest estimates the statistical significance of candidate
// interactions by phenotype permutation — the standard GWAS follow-up
// once an exhaustive scan has produced its best combinations. Under the
// null hypothesis the phenotype labels carry no information about the
// genotypes, so re-scoring a candidate under random relabelings draws
// from its null score distribution; the p-value is the (add-one
// smoothed) fraction of permutations scoring at least as well as the
// observed data.
package permtest

import (
	"context"
	"fmt"
	"runtime"

	"trigene/internal/bitvec"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/join"
	"trigene/internal/score"
)

// Config parameterizes a permutation test.
type Config struct {
	// Permutations is the number of phenotype relabelings (default
	// 1000; the p-value resolution is 1/(Permutations+1)).
	Permutations int
	// Seed makes the test reproducible: permutation p is casePlane of
	// (Seed, p), so results are deterministic for a given seed
	// regardless of Workers.
	Seed int64
	// Workers is the parallelism (default all cores).
	Workers int
	// Objective must match the objective used by the scan that
	// produced the candidate (default Bayesian K2).
	Objective score.Objective
	// Context optionally allows cancellation; nil means
	// context.Background(). Cancellation is observed between
	// permutations and returns the context error.
	Context context.Context
}

// Result summarizes a permutation test.
type Result struct {
	// Observed is the candidate's score on the real phenotypes.
	Observed float64
	// AsGoodOrBetter counts permutations whose score ties or beats
	// Observed.
	AsGoodOrBetter int
	// Permutations is the number of relabelings evaluated.
	Permutations int
	// PValue is (AsGoodOrBetter + 1) / (Permutations + 1).
	PValue float64
}

func newResult(observed float64, hits, permutations int) *Result {
	return &Result{
		Observed:       observed,
		AsGoodOrBetter: hits,
		Permutations:   permutations,
		PValue:         float64(hits+1) / float64(permutations+1),
	}
}

func (c Config) withDefaults(maxSamples int) (Config, error) {
	if c.Permutations == 0 {
		c.Permutations = 1000
	}
	if c.Permutations < 1 {
		return c, fmt.Errorf("permtest: invalid permutation count %d", c.Permutations)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("permtest: invalid worker count %d", c.Workers)
	}
	if c.Objective == nil {
		c.Objective = score.NewK2(maxSamples)
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c, nil
}

// Triple tests the significance of the 3-way candidate (i, j, k).
func Triple(mx *dataset.Matrix, i, j, k int, cfg Config) (*Result, error) {
	return K(mx, []int{i, j, k}, cfg)
}

// Pair tests the significance of the 2-way candidate (i, j).
func Pair(mx *dataset.Matrix, i, j int, cfg Config) (*Result, error) {
	return K(mx, []int{i, j}, cfg)
}

// checkCombo validates one candidate against a dataset of m SNPs.
func checkCombo(m int, snps []int) error {
	k := len(snps)
	if k < 2 || k > contingency.MaxOrder {
		return fmt.Errorf("permtest: order %d out of [2,%d]", k, contingency.MaxOrder)
	}
	for i, v := range snps {
		if v < 0 || v >= m || (i > 0 && snps[i-1] >= v) {
			return fmt.Errorf("permtest: invalid combination %v", snps)
		}
	}
	return nil
}

// cellScore is how a candidate's permuted tables are scored: through the
// objective's ScoreCells, and, under K2, eight at a time through its
// lanes.
type cellScore struct {
	obj score.Objective
	k2  *score.K2Objective // nil for any other objective
}

func newCellScore(obj score.Objective) *cellScore {
	k2, _ := obj.(*score.K2Objective)
	return &cellScore{obj: obj, k2: k2}
}

// hit reports whether a permuted score ties or beats the observed one.
func (cs *cellScore) hit(sc, obs float64) bool {
	return sc == obs || cs.obj.Better(sc, obs)
}

// K tests the significance of an arbitrary-order candidate; the order
// is len(snps), in [2, contingency.MaxOrder], and snps must be strictly
// increasing.
//
// K is the scalar reference of the bit-plane kernel (KAll/KAllRange):
// it draws the same relabelings, through casePlane's Go fill on every
// host (casePlaneGo), and reads them one sample at a time against the
// genotype matrix — no combo planes, no popcounts, observed table from
// contingency.BuildReferenceK — so the kernel's planes and counts are
// checked against independent code.
func K(mx *dataset.Matrix, snps []int, cfg Config) (*Result, error) {
	if err := checkCombo(mx.SNPs(), snps); err != nil {
		return nil, err
	}
	c, err := cfg.withDefaults(mx.Samples())
	if err != nil {
		return nil, err
	}
	cs := newCellScore(c.Objective)
	cells := contingency.CellsK(len(snps))
	obsCtrl, obsCases := make([]int32, cells), make([]int32, cells)
	if err := contingency.BuildReferenceK(mx, snps, obsCtrl, obsCases); err != nil {
		return nil, err
	}
	obs := cs.obj.ScoreCells(obsCtrl, obsCases)

	// Each sample's genotype-combination cell, so a permutation only
	// pays one table fill.
	n := mx.Samples()
	combos := make([]uint16, n)
	for s := range combos {
		cell := 0
		for _, snp := range snps {
			cell = cell*3 + int(mx.Geno(snp, s))
		}
		combos[s] = uint16(cell)
	}
	_, nCases := mx.ClassCounts()

	counts := make([]int, c.Workers)
	var g join.Group
	for w := 0; w < c.Workers; w++ {
		g.Go(func() {
			plane := make([]uint64, bitvec.WordsFor(n))
			ctrl, cases := make([]int32, cells), make([]int32, cells)
			hits := 0
			for p := w; p < c.Permutations; p += c.Workers {
				if c.Context.Err() != nil {
					return
				}
				casePlaneGo(plane, n, nCases, c.Seed, p)
				clear(ctrl)
				clear(cases)
				for s, cell := range combos {
					if plane[s>>6]>>(uint(s)&63)&1 != 0 {
						cases[cell]++
					} else {
						ctrl[cell]++
					}
				}
				if cs.hit(cs.obj.ScoreCells(ctrl, cases), obs) {
					hits++
				}
			}
			counts[w] = hits
		})
	}
	g.Wait()
	if err := c.Context.Err(); err != nil {
		return nil, err
	}

	total := 0
	for _, h := range counts {
		total += h
	}
	return newResult(obs, total, c.Permutations), nil
}
