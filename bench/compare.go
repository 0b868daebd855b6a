package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
)

// metricDef is one end-to-end metric as BENCHMARK.json fixes it: Bound is
// the share of the parent's median by which it may get worse before a
// change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd mirrors BENCHMARK.json's end_to_end list (the smoke test holds
// the two together).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "gelems_per_s", Unit: "Gelem/s", Better: "higher", Bound: 0.25},
	{Name: "perm_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// worseBy is how much worse b is than a, as a share of a (negative when b
// is better).
func (d metricDef) worseBy(a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// comparable refuses to set two results files side by side unless they
// were made with the same worker count, seed, run length and shapes.
func comparable(a, b *resultsFile) error {
	switch {
	case a.Host.P != b.Host.P:
		return fmt.Errorf("P %d vs %d", a.Host.P, b.Host.P)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("run length %g s vs %g s", a.Seconds, b.Seconds)
	case !reflect.DeepEqual(a.Workloads, b.Workloads):
		return fmt.Errorf("workload shapes differ")
	}
	return nil
}

func loadResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(resultsFile)
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one metric over a workload's runs of one kind, in the
// order the runs were made, and counts the operations that failed.
func (f *resultsFile) values(workload, metric string, traced bool) (vals []float64, failed int) {
	for _, r := range f.Runs[workload] {
		if r.Traced != traced {
			continue
		}
		failed += r.Failed
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals, failed
}

// verdict judges b (the change) against a (the parent) on one metric of one
// workload. Regression: b's median is worse by more than the bound.
// Unresolved: not a regression, but either side's run-to-run spread (with
// at least four runs to take quartiles from) is wider than the bound, so
// "unchanged" cannot be told from noise.
func (d metricDef) verdict(a, b summary) string {
	switch {
	case d.worseBy(a.Median, b.Median) > d.Bound:
		return "REGRESSION"
	case (a.N >= 4 && a.spread() > d.Bound) || (b.N >= 4 && b.spread() > d.Bound):
		return "unresolved"
	}
	return "ok"
}

// gainHolds applies the rule for claiming a gain: b wins at least nine
// tenths of the alternated pairs (ties count for neither), over at least
// ten pairs, and the medians differ by more than the parent's
// inter-quartile distance.
func (d metricDef) gainHolds(a, b []float64) (holds bool, wins, pairs int) {
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if d.worseBy(a[i], b[i]) < 0 {
			wins++
		}
	}
	sa, sb := summarize(a[:pairs]), summarize(b[:pairs])
	better := d.worseBy(sa.Median, sb.Median) < 0
	apart := math.Abs(sb.Median-sa.Median) > sa.Q3-sa.Q1
	return pairs >= 10 && 10*wins >= 9*pairs && better && apart, wins, pairs
}

// compareFiles prints one row per (end-to-end metric, workload) and one
// informational row per per-layer metric, and fails on any regression or
// any failed operation.
func compareFiles(out io.Writer, pathA, pathB string, judgeGain bool) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	if err := comparable(a, b); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", pathA, pathB, err)
	}
	fmt.Fprintf(out, "a = %s (base), b = %s; P=%d, seed %d, %g s per run\n", pathA, pathB, a.Host.P, a.Seed, a.Seconds)
	regressions, failures := 0, 0
	for _, w := range a.Workloads {
		fmt.Fprintf(out, "\n== %s ==\n", w.Name)
		fmt.Fprintf(out, "  %-22s %-8s %12s %24s %12s %24s %9s %6s  %s\n",
			"metric", "unit", "a median", "a [q1, q3] n", "b median", "b [q1, q3] n", "b/a", "bound", "verdict")
		for _, d := range endToEnd {
			va, fa := a.values(w.Name, d.Name, false)
			vb, fb := b.values(w.Name, d.Name, false)
			failures += fa + fb
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "  %-22s missing on one side\n", d.Name)
				regressions++
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			verdict := d.verdict(sa, sb)
			if verdict == "REGRESSION" {
				regressions++
			}
			if judgeGain {
				holds, wins, pairs := d.gainHolds(va, vb)
				verdict += fmt.Sprintf("; gain %v (b wins %d of %d pairs)", holds, wins, pairs)
			}
			fmt.Fprintf(out, "  %-22s %-8s %12.6g %24s %12.6g %24s %9.4f %5.0f%%  %s\n",
				d.Name, d.Unit, sa.Median, quartiles(sa), sb.Median, quartiles(sb), sb.Median/sa.Median, d.Bound*100, verdict)
		}
		fa, fb := failedOps(a, w.Name), failedOps(b, w.Name)
		fmt.Fprintf(out, "  %-22s a %d, b %d failed operations\n", "failed_ratio", fa, fb)

		layer := map[string]bool{}
		for _, f := range []*resultsFile{a, b} {
			for _, r := range f.Runs[w.Name] {
				if r.Traced {
					for name := range r.Metrics {
						layer[name] = true
					}
				}
			}
		}
		names := make([]string, 0, len(layer))
		for name := range layer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			va, _ := a.values(w.Name, name, true)
			vb, _ := b.values(w.Name, name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(out, "  . %-38s %12.6g -> %12.6g  (b/a %.4f of base %.6g, n=%d/%d)\n", name, ma, mb, mb/ma, ma, len(va), len(vb))
		}
	}
	if regressions > 0 || failures > 0 {
		return fmt.Errorf("%d regressions, %d failed operations", regressions, failures)
	}
	return nil
}

func quartiles(s summary) string { return fmt.Sprintf("[%.5g, %.5g] %d", s.Q1, s.Q3, s.N) }

func failedOps(f *resultsFile, workload string) (n int) {
	for _, r := range f.Runs[workload] {
		n += r.Failed
	}
	return n
}
