package trigene

import (
	"reflect"
	"testing"
)

// TestSearchSpecRoundTrip: a configuration serialized by spec() and
// rebuilt by SearchSpec.Options() serializes to the same spec again, so
// a cluster worker runs what the client asked for. The table names the
// wire form of every case (the fused approaches travel as "V5"/"V6")
// and, between them, sets every field spec() writes.
func TestSearchSpecRoundTrip(t *testing.T) {
	gn1, err := GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	gpuApproach := func(s string) Approach {
		k, err := ParseGPUKernel(s)
		if err != nil {
			t.Fatal(err)
		}
		return Approach(int(k))
	}
	cases := []struct {
		name string
		opts []Option
		want SearchSpec
	}{
		{"defaults", nil, SearchSpec{Order: 3, TopK: 1, Backend: "cpu"}},
		{"cpu order 2 mi top 4, 3 workers",
			[]Option{WithBackend(CPU()), WithOrder(2), WithTopK(4), WithObjective("mi"), WithWorkers(3)},
			SearchSpec{Order: 2, TopK: 4, Objective: "mi", Backend: "cpu", Workers: 3}},
		{"baseline", []Option{WithBackend(Baseline())}, SearchSpec{Order: 3, TopK: 1, Backend: "baseline"}},
		{"hetero", []Option{WithBackend(Hetero())}, SearchSpec{Order: 3, TopK: 1, Backend: "hetero"}},
		{"gpusim", []Option{WithBackend(GPUSim(gn1))}, SearchSpec{Order: 3, TopK: 1, Backend: "gpusim:GN1"}},
		{"gpusim tiled kernel", []Option{WithBackend(GPUSim(gn1)), WithApproach(gpuApproach("tiled"))},
			SearchSpec{Order: 3, TopK: 1, Backend: "gpusim:GN1", Approach: "V4"}},
		{"gpusim fused kernel", []Option{WithBackend(GPUSim(gn1)), WithApproach(gpuApproach("fused"))},
			SearchSpec{Order: 3, TopK: 1, Backend: "gpusim:GN1", Approach: "V5"}},
		{"cpu V3F", []Option{WithApproach(V3Fused)}, SearchSpec{Order: 3, TopK: 1, Backend: "cpu", Approach: "V5"}},
		{"cpu V4F", []Option{WithApproach(V4Fused)}, SearchSpec{Order: 3, TopK: 1, Backend: "cpu", Approach: "V6"}},
		{"screen", []Option{WithTopK(5), WithScreen(ScreenSpec{MaxSurvivors: 8, SeedPairs: 2, BudgetSeconds: 1.5})},
			SearchSpec{Order: 3, TopK: 5, Backend: "cpu", Screen: &ScreenSpec{MaxSurvivors: 8, SeedPairs: 2, BudgetSeconds: 1.5}}},
	}
	set := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := specOf(t, tc.opts)
			if !reflect.DeepEqual(sp, tc.want) {
				t.Fatalf("spec %+v, want %+v", sp, tc.want)
			}
			opts, err := sp.Options()
			if err != nil {
				t.Fatal(err)
			}
			if back := specOf(t, opts); !reflect.DeepEqual(back, sp) {
				t.Errorf("spec %+v rebuilds as %+v", sp, back)
			}
			v := reflect.ValueOf(sp)
			for i := 0; i < v.NumField(); i++ {
				if !v.Field(i).IsZero() {
					set[v.Type().Field(i).Name] = true
				}
			}
		})
	}
	// The fields spec() never writes: cluster scheduling policy, set by
	// the submitter, and the permutation job, built by PermutationTest.
	notSerialized := map[string]bool{"MaxWorkers": true, "DeadlineMillis": true, "Perm": true}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(SearchSpec{})) {
		if !set[f.Name] && !notSerialized[f.Name] {
			t.Errorf("no case sets SearchSpec.%s", f.Name)
		}
	}
}

// specOf resolves opts and serializes the configuration.
func specOf(t *testing.T, opts []Option) SearchSpec {
	t.Helper()
	cfg, err := newSearchConfig(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.spec()
}
