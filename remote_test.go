package trigene_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"trigene"
)

// TestParseBackendRoundTrip: every backend's Name() parses back to a
// backend with the same name.
func TestParseBackendRoundTrip(t *testing.T) {
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []trigene.Backend{trigene.CPU(), trigene.Baseline(), trigene.Hetero(), trigene.GPUSim(gn1)} {
		got, err := trigene.ParseBackend(b.Name())
		if err != nil {
			t.Errorf("ParseBackend(%q): %v", b.Name(), err)
			continue
		}
		if got.Name() != b.Name() {
			t.Errorf("ParseBackend(%q).Name() = %q", b.Name(), got.Name())
		}
	}
	if got, err := trigene.ParseBackend(""); err != nil || got.Name() != "cpu" {
		t.Errorf("ParseBackend(\"\") = %v, %v; want cpu", got, err)
	}
	for _, bad := range []string{"tpu", "gpusim:NOPE", "cpu2"} {
		if _, err := trigene.ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend(%q) accepted", bad)
		}
	}
}

// TestSearchSpecOptions: a spec's rebuilt options reproduce the direct
// call bit-exactly, on CPU and simulated-GPU backends.
func TestSearchSpecOptions(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	cases := []struct {
		name   string
		spec   trigene.SearchSpec
		direct []trigene.Option
	}{
		{
			"zero spec is the zero call",
			trigene.SearchSpec{},
			nil,
		},
		{
			"cpu order 2 mi top3",
			trigene.SearchSpec{Order: 2, TopK: 3, Objective: "mi", Backend: "cpu", Workers: 2},
			[]trigene.Option{trigene.WithOrder(2), trigene.WithTopK(3), trigene.WithObjective("mi"), trigene.WithWorkers(2)},
		},
		{
			"cpu pinned V3F",
			trigene.SearchSpec{Approach: "V3F"},
			[]trigene.Option{trigene.WithApproach(trigene.V3Fused)},
		},
		{
			"gpusim kernel V3",
			trigene.SearchSpec{Backend: "gpusim:GN1", Approach: "V3", TopK: 2},
			nil, // compared via metadata below
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts, err := tc.spec.Options()
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Search(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.direct != nil || tc.spec == (trigene.SearchSpec{}) {
				want, err := s.Search(ctx, tc.direct...)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, tc.name, got, want)
				return
			}
			if got.Backend != tc.spec.Backend || got.Approach != tc.spec.Approach || len(got.TopK) != tc.spec.TopK {
				t.Errorf("spec run metadata: backend=%q approach=%q topk=%d", got.Backend, got.Approach, len(got.TopK))
			}
		})
	}
	// Parse failures surface from Options, not from the search.
	for _, bad := range []trigene.SearchSpec{
		{Backend: "bogus"},
		{Approach: "V9"},
		{Backend: "gpusim:GN1", Approach: "blocked-fused"}, // CPU-only name on a GPU backend
		// V1..V4 are gpusim kernels; the cpu backend refuses them.
		{Approach: "V1"},
		{Approach: "V2"},
		{Backend: "cpu", Approach: "V3"},
		{Backend: "cpu", Approach: "vector"},
	} {
		if _, err := bad.Options(); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
}

// recordingExecutor captures the spec WithCluster serializes and
// returns a canned report.
type recordingExecutor struct {
	spec    trigene.SearchSpec
	samples int
	rep     *trigene.Report
	err     error
}

func (e *recordingExecutor) Name() string { return "recording" }

func (e *recordingExecutor) ExecuteSearch(_ context.Context, mx *trigene.Matrix, spec trigene.SearchSpec) (*trigene.Report, error) {
	e.spec = spec
	e.samples = mx.Samples()
	return e.rep, e.err
}

// TestWithCluster checks the remote routing: the resolved
// configuration is serialized into the spec handed to the executor,
// the executor's report is returned as-is, and non-serializable
// configurations fail loudly.
func TestWithCluster(t *testing.T) {
	s := plantedSession(t)
	ctx := context.Background()
	canned := &trigene.Report{Backend: "cpu", Approach: "V2", Objective: "k2", Order: 3}
	exec := &recordingExecutor{rep: canned}

	rep, err := s.Search(ctx, trigene.WithCluster(exec),
		trigene.WithOrder(2), trigene.WithTopK(4), trigene.WithObjective("gini"), trigene.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep != canned {
		t.Error("executor report not returned as-is")
	}
	want := trigene.SearchSpec{Order: 2, TopK: 4, Objective: "gini", Backend: "cpu", Workers: 3}
	if exec.spec != want {
		t.Errorf("serialized spec %+v, want %+v", exec.spec, want)
	}
	if exec.samples != s.Samples() {
		t.Errorf("executor saw %d samples, want %d", exec.samples, s.Samples())
	}

	// A pinned approach serializes; the spec round-trips to options.
	if _, err := s.Search(ctx, trigene.WithCluster(exec), trigene.WithApproach(trigene.V3Fused)); err != nil {
		t.Fatal(err)
	}
	if exec.spec.Approach != "V5" {
		t.Errorf("approach serialized as %q, want V5 (V3F)", exec.spec.Approach)
	}
	if _, err := exec.spec.Options(); err != nil {
		t.Errorf("serialized spec does not rebuild: %v", err)
	}

	// Executor failures carry its name.
	exec.err = fmt.Errorf("coordinator down")
	if _, err := s.Search(ctx, trigene.WithCluster(exec)); err == nil || !strings.Contains(err.Error(), "recording") {
		t.Errorf("executor error = %v, want named wrap", err)
	}
	exec.err = nil

	// Loud failures: nil executor, sharding, progress and permutation
	// tests.
	if _, err := s.Search(ctx, trigene.WithCluster(nil)); err == nil {
		t.Error("nil executor accepted")
	}
	if _, err := s.Search(ctx, trigene.WithCluster(exec), trigene.WithShard(0, 2)); err == nil {
		t.Error("WithShard + WithCluster accepted")
	}
	if _, err := s.Search(ctx, trigene.WithCluster(exec), trigene.WithProgress(func(done, total int64) {})); err == nil {
		t.Error("WithProgress + WithCluster accepted")
	}
	if _, err := s.PermutationTest(ctx, []int{1, 2, 3}, trigene.WithCluster(exec)); err == nil {
		t.Error("WithCluster on a permutation test accepted")
	}
}
