package main

import (
	"fmt"
	"math"
	"slices"

	"trigene"
	"trigene/internal/contingency"
	"trigene/internal/permtest"
	"trigene/internal/score"
)

// oracle checks the program's outputs against the per-sample reference
// builders and the scalar permutation test, on the generator's own matrix
// (never on what the program parsed).
type oracle struct {
	mx      *trigene.Matrix
	planted []int
}

func newOracle(w workloadDef, seed int64) (*oracle, error) {
	cfg := w.genConfig(seed)
	mx, err := trigene.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &oracle{mx: mx, planted: cfg.Interaction.SNPs[:]}, nil
}

// referenceScore rescores one candidate from the genotype matrix, one
// sample at a time, under the named objective.
func (o *oracle) referenceScore(objective string, snps []int) (float64, error) {
	obj, err := score.New(objective, o.mx.Samples())
	if err != nil {
		return 0, err
	}
	for _, s := range snps {
		if s < 0 || s >= o.mx.SNPs() {
			return 0, fmt.Errorf("SNP index %d out of range", s)
		}
	}
	switch len(snps) {
	case 2:
		t := contingency.BuildReferencePair(o.mx, snps[0], snps[1])
		return obj.Score(&t), nil
	case 3:
		t := contingency.BuildReference(o.mx, snps[0], snps[1], snps[2])
		return obj.Score(&t), nil
	}
	cs, ok := obj.(score.CellScorer)
	if !ok {
		return 0, fmt.Errorf("objective %s cannot score order %d", objective, len(snps))
	}
	ctrl := make([]int32, contingency.CellsK(len(snps)))
	cases := make([]int32, len(ctrl))
	if err := contingency.BuildReferenceK(o.mx, snps, ctrl, cases); err != nil {
		return 0, err
	}
	return cs.ScoreCells(ctrl, cases), nil
}

// checkReport verifies that the best candidate is the planted triple and
// that every top-K score equals the reference score bit for bit.
func (o *oracle) checkReport(rep *trigene.Report) error {
	if rep == nil || len(rep.TopK) == 0 {
		return fmt.Errorf("report carries no candidates")
	}
	if !slices.Equal(rep.Best.SNPs, o.planted) {
		return fmt.Errorf("best candidate %v is not the planted triple %v", rep.Best.SNPs, o.planted)
	}
	if !slices.Equal(rep.TopK[0].SNPs, rep.Best.SNPs) || rep.TopK[0].Score != rep.Best.Score {
		return fmt.Errorf("Best %v disagrees with TopK[0] %v", rep.Best, rep.TopK[0])
	}
	for i, c := range rep.TopK {
		want, err := o.referenceScore(rep.Objective, c.SNPs)
		if err != nil {
			return fmt.Errorf("candidate %d %v: %w", i, c.SNPs, err)
		}
		if math.Float64bits(c.Score) != math.Float64bits(want) {
			return fmt.Errorf("candidate %d %v scores %v, reference %v", i, c.SNPs, c.Score, want)
		}
	}
	return nil
}

// checkPermScalar re-derives one candidate's permutation result with the
// scalar permtest.K path and demands identical hit counts and p-value.
func (o *oracle) checkPermScalar(objective string, snps []int, got *trigene.PermResult) error {
	obj, err := score.New(objective, o.mx.Samples())
	if err != nil {
		return err
	}
	want, err := permtest.K(o.mx, snps, permtest.Config{
		Permutations: got.Permutations, Seed: permSeed, Workers: workers(), Objective: obj,
	})
	if err != nil {
		return err
	}
	if *want != *got {
		return fmt.Errorf("permutation test of %v: got %+v, scalar oracle %+v", snps, *got, *want)
	}
	return nil
}

// sameOutcome reports whether two repetitions returned identical results,
// ignoring durations: same ranked candidates with bit-equal scores and
// the same permutation outcomes. Every repetition of a workload — traced,
// clustered or not — must agree with the first.
func sameOutcome(a, b repResult) error {
	if a.report.Objective != b.report.Objective || a.report.Order != b.report.Order {
		return fmt.Errorf("objective/order %s/%d vs %s/%d", a.report.Objective, a.report.Order, b.report.Objective, b.report.Order)
	}
	if a.combos != b.combos {
		return fmt.Errorf("evaluated %d combinations vs %d", a.combos, b.combos)
	}
	if len(a.report.TopK) != len(b.report.TopK) {
		return fmt.Errorf("top-K depth %d vs %d", len(a.report.TopK), len(b.report.TopK))
	}
	for i, c := range a.report.TopK {
		d := b.report.TopK[i]
		if !slices.Equal(c.SNPs, d.SNPs) || math.Float64bits(c.Score) != math.Float64bits(d.Score) {
			return fmt.Errorf("candidate %d: %v vs %v", i, c, d)
		}
	}
	if len(a.perm) != len(b.perm) {
		return fmt.Errorf("%d permutation results vs %d", len(a.perm), len(b.perm))
	}
	for i := range a.perm {
		if *a.perm[i] != *b.perm[i] {
			return fmt.Errorf("permutation result %d: %+v vs %+v", i, *a.perm[i], *b.perm[i])
		}
	}
	return nil
}
