package main

import (
	"context"
	"strings"
	"testing"

	"trigene"
)

// toy shrinks a workload to a shape a test runs in well under a second,
// keeping its kind, its job and its ragged or whole-word sample count.
func toy(w workloadDef) workloadDef {
	w.SNPs, w.TopK, w.Perms, w.Tiles, w.PermTiles = 24, 4, 50, 8, 4
	w.Samples = 256
	if w.Name == "triples-tall" {
		w.Samples = 250 // ragged tail
	}
	if w.Screen != nil {
		w.Screen = &trigene.ScreenSpec{MaxSurvivors: 12, SeedPairs: 4}
	}
	return w
}

// oracleFixture runs one real repetition of a toy workload and returns it
// with the oracle for its dataset.
func oracleFixture(t *testing.T) (*oracle, workloadDef, repResult) {
	t.Helper()
	w := toy(workloads[0])
	o, err := newOracle(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(o.mx)
	if err != nil {
		t.Fatal(err)
	}
	r, err := searchAndTest(context.Background(), w, sess)
	if err != nil {
		t.Fatal(err)
	}
	return o, w, r
}

func TestOracleAcceptsARealReport(t *testing.T) {
	o, _, r := oracleFixture(t)
	if err := o.checkReport(r.report); err != nil {
		t.Fatalf("oracle rejected a correct report: %v", err)
	}
	if err := sameOutcome(r, r); err != nil {
		t.Fatalf("a repetition differs from itself: %v", err)
	}
	if err := o.checkPermScalar(r.report.Objective, r.report.TopK[0].SNPs, r.perm[0]); err != nil {
		t.Fatalf("scalar oracle rejected a correct permutation result: %v", err)
	}
}

// TestOracleRejectsCorruptedReports feeds the checker deliberately
// corrupted copies of a correct result; every one must fail.
func TestOracleRejectsCorruptedReports(t *testing.T) {
	o, _, good := oracleFixture(t)
	clone := func() repResult {
		r := good
		rep := *good.report
		rep.TopK = make([]trigene.SearchCandidate, len(good.report.TopK))
		for i, c := range good.report.TopK {
			rep.TopK[i] = trigene.SearchCandidate{SNPs: append([]int(nil), c.SNPs...), Score: c.Score}
		}
		rep.Best = rep.TopK[0]
		r.report = &rep
		r.perm = make([]*trigene.PermResult, len(good.perm))
		for i, p := range good.perm {
			cp := *p
			r.perm[i] = &cp
		}
		return r
	}
	cases := []struct {
		name    string
		corrupt func(r *repResult)
		check   func(r repResult) error
		want    string
	}{
		{"score off by one ulp-ish", func(r *repResult) { r.report.TopK[1].Score *= 1 + 1e-15 },
			func(r repResult) error { return o.checkReport(r.report) }, "reference"},
		{"wrong best triple", func(r *repResult) {
			r.report.TopK[0], r.report.TopK[1] = r.report.TopK[1], r.report.TopK[0]
			r.report.Best = r.report.TopK[0]
		}, func(r repResult) error { return o.checkReport(r.report) }, "planted"},
		{"Best disagrees with TopK[0]", func(r *repResult) { r.report.Best.Score++ },
			func(r repResult) error { return o.checkReport(r.report) }, "disagrees"},
		{"SNP index out of range", func(r *repResult) { r.report.TopK[2].SNPs[2] = 1 << 20 },
			func(r repResult) error { return o.checkReport(r.report) }, "out of range"},
		{"empty report", func(r *repResult) { r.report.TopK = nil },
			func(r repResult) error { return o.checkReport(r.report) }, "no candidates"},
		{"repetitions disagree on a score", func(r *repResult) { r.report.TopK[3].Score += 1e-9 },
			func(r repResult) error { return sameOutcome(good, r) }, "candidate 3"},
		{"repetitions disagree on coverage", func(r *repResult) { r.combos-- },
			func(r repResult) error { return sameOutcome(good, r) }, "combinations"},
		{"cluster p-value differs", func(r *repResult) { r.perm[1].AsGoodOrBetter++ },
			func(r repResult) error { return sameOutcome(good, r) }, "permutation result 1"},
		{"hit count the scalar path does not reproduce", func(r *repResult) { r.perm[0].AsGoodOrBetter += 3 },
			func(r repResult) error {
				return o.checkPermScalar(r.report.Objective, r.report.TopK[0].SNPs, r.perm[0])
			}, "scalar oracle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := clone()
			tc.corrupt(&r)
			err := tc.check(r)
			if err == nil {
				t.Fatal("corrupted result passed the oracle")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
