package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is ../BENCHMARK.json, the contract this package is held to.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"` // Bound stays zero
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json and the tables in
// this package together: workloads, run length and the end-to-end metrics
// with their bounds.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, defaultSeconds %v", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range b.EndToEnd {
		if d != endToEnd[i] {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the code", i, d, endToEnd[i])
		}
	}
}

// TestSmoke runs every workload at a toy shape, untraced and traced, and
// checks that each run emits exactly the metrics BENCHMARK.json names for
// it, with the units it names, and that no operation fails.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	defer func(n int) { gaugeIters = n }(gaugeIters)
	gaugeIters = 100
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, full := range workloads {
		for _, trace := range []bool{false, true} {
			w, want, mode := toy(full), b.EndToEnd, "untraced"
			if trace {
				want, mode = b.PerLayer, "traced"
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				spans := filepath.Join(dir, "spans.json")
				res, err := runWorkload(context.Background(), runConfig{
					w: w, seed: 3, seconds: 0.4, trace: trace, workdir: dir,
					spansPath: spans, memSet: 3 << 20,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d operations failed: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					switch {
					case !nameOK.MatchString(d.Name):
						t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
					case !ok:
						t.Errorf("metric %s not emitted", d.Name)
					case got.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, got.Unit, d.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v; it must never be 0", d.Name, got.Value)
					}
				}
				if trace {
					if v := res.Metrics["failed_ratio"].Value; v != 0 {
						t.Errorf("failed_ratio = %v", v)
					}
					if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
						t.Errorf("no span file written: %v", err)
					}
				}
				line, err := json.Marshal(res.contract())
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Errorf("contract line %s does not have exactly the four keys", line)
				}
			})
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "solve_s", Better: "lower", Bound: 0.08}
	steady := summarize([]float64{1.00, 1.01, 0.99, 1.00})
	if v := lower.verdict(steady, summarize([]float64{1.05, 1.04, 1.06, 1.05})); v != "ok" {
		t.Errorf("5%% worse inside an 8%% bound: %s", v)
	}
	if v := lower.verdict(steady, summarize([]float64{1.10, 1.11, 1.09, 1.10})); v != "REGRESSION" {
		t.Errorf("10%% worse: %s", v)
	}
	if v := lower.verdict(steady, summarize([]float64{0.8, 1.2, 0.9, 1.1})); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	higher := metricDef{Name: "gelems_per_s", Better: "higher", Bound: 0.08}
	if v := higher.verdict(steady, summarize([]float64{0.90, 0.91, 0.89, 0.90})); v != "REGRESSION" {
		t.Errorf("10%% less throughput: %s", v)
	}
	a := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	b := make([]float64, len(a))
	for i, v := range a {
		b[i] = v * 0.9
	}
	if holds, wins, pairs := lower.gainHolds(a, b); !holds || wins != 10 || pairs != 10 {
		t.Errorf("10 of 10 wins, medians 10%% apart: holds %v, %d of %d", holds, wins, pairs)
	}
	if holds, _, _ := lower.gainHolds(a, a); holds {
		t.Error("identical runs claim a gain")
	}
	if holds, _, _ := lower.gainHolds(a[:5], b[:5]); holds {
		t.Error("five pairs claim a gain")
	}
}
