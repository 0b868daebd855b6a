package plan

import (
	"math"
	"testing"

	"trigene/internal/device"
)

func hostCI3() Host {
	c, err := device.CPUByID("CI3")
	if err != nil {
		panic(err)
	}
	return Host{CPU: c}
}

var wl = Workload{SNPs: 4096, Samples: 16384}

func TestDecideCPUPricesDefaultKernel(t *testing.T) {
	p, err := Decide(wl, hostCI3(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "cpu" {
		t.Errorf("backend = %q, want cpu (the empty constraint)", p.Backend)
	}
	if p.Approach != "V4F" {
		t.Errorf("approach = %q, want V4F (the engine default)", p.Approach)
	}
	if p.CPUFraction != 1 || p.PredictedGPUGElems != 0 {
		t.Errorf("pure CPU plan carries a GPU share: frac=%g gpu=%g", p.CPUFraction, p.PredictedGPUGElems)
	}
	if p.PredictedCPUGElems <= 0 || p.PredictedCombosPerSec <= 0 {
		t.Errorf("predictions not populated: %+v", p)
	}
	if p.Reason == "" {
		t.Error("empty decision trace")
	}
}

// TestDecideLiveHost: on the live host's model an unconstrained plan
// prices the engine default V4F at every benchmark shape and beyond,
// never the portable V3F the model once rated higher.
func TestDecideLiveHost(t *testing.T) {
	for _, w := range []Workload{
		{SNPs: 64, Samples: 2048},
		{SNPs: 96, Samples: 16384},
		{SNPs: 224, Samples: 500},
		{SNPs: 640, Samples: 16384},
		{SNPs: 128, Samples: 8192},
		{SNPs: 5000, Samples: 100000},
	} {
		p, err := Decide(w, LiveHost(), Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Backend != "cpu" || p.CPUDevice != "HOST" || p.Approach != "V4F" {
			t.Errorf("%d x %d live-host plan: backend=%q device=%q approach=%q", w.SNPs, w.Samples, p.Backend, p.CPUDevice, p.Approach)
		}
		if p.Workers < 1 || p.PredictedCPUGElems <= 0 {
			t.Errorf("%d x %d live-host plan: workers=%d predicted=%g", w.SNPs, w.Samples, p.Workers, p.PredictedCPUGElems)
		}
	}
}

// TestDecidePinnedHeteroPricesV2: hetero's CPU half runs V2, so its
// split is priced on V2 against GN1. Priced as V4F instead, the same
// plan read 0.406.
func TestDecidePinnedHeteroPricesV2(t *testing.T) {
	h := hostCI3()
	h.Workers = 2
	p, err := Decide(Workload{SNPs: 96, Samples: 16384}, h, Constraints{Backend: "hetero", Approach: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "hetero" || p.Approach != "V2" || p.GPUDevice != "GN1" {
		t.Fatalf("hetero plan: backend=%q approach=%q gpu=%q", p.Backend, p.Approach, p.GPUDevice)
	}
	if math.Abs(p.CPUFraction-0.154) > 0.0005 {
		t.Errorf("split %.4f, want 0.154", p.CPUFraction)
	}
	// The split is throughput-proportional.
	want := p.PredictedCPUGElems / (p.PredictedCPUGElems + p.PredictedGPUGElems)
	if diff := p.CPUFraction - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("split %g, want %g", p.CPUFraction, want)
	}
}

func TestDecideHonorsConstraints(t *testing.T) {
	p, err := Decide(wl, hostCI3(), Constraints{Backend: "baseline", Approach: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "baseline" || p.Approach != "V1" {
		t.Errorf("baseline constraint: backend=%q approach=%q", p.Backend, p.Approach)
	}

	for a, name := range map[int]string{2: "V2", 5: "V3F", 6: "V4F"} {
		p, err = Decide(wl, hostCI3(), Constraints{Approach: a})
		if err != nil {
			t.Fatal(err)
		}
		if p.Approach != name {
			t.Errorf("approach %d constraint priced %q, want %q", a, p.Approach, name)
		}
	}

	// A gpusim constraint supplies its own device model and prices no
	// CPU kernel.
	p, err = Decide(wl, hostCI3(), Constraints{Backend: "gpusim:GI2", Approach: 6})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "gpusim:GI2" || p.GPUDevice != "GI2" || p.PredictedGPUGElems <= 0 ||
		p.Approach != "" || p.PredictedCPUGElems != 0 || p.CPUFraction != 0 {
		t.Errorf("gpusim constraint: %+v", p)
	}

	if _, err := Decide(wl, hostCI3(), Constraints{Backend: "gpusim:NOPE"}); err == nil {
		t.Error("unknown gpusim device accepted")
	}
	if _, err := Decide(wl, hostCI3(), Constraints{Approach: 9}); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestDecideOrderGeneric(t *testing.T) {
	// Orders beyond 3 run the flat split kernel, which the caller names.
	p, err := Decide(Workload{SNPs: 500, Samples: 4000, Order: 4}, hostCI3(), Constraints{Approach: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Approach != "V2" || p.PredictedCPUGElems <= 0 {
		t.Errorf("order-4 plan: approach %q, predicted %g", p.Approach, p.PredictedCPUGElems)
	}
	if _, err := Decide(Workload{SNPs: 3, Samples: 4000, Order: 4}, hostCI3(), Constraints{Approach: 2}); err == nil {
		t.Error("3 SNPs at order 4 accepted")
	}
}

func TestDecideRejectsNonsense(t *testing.T) {
	if _, err := Decide(Workload{SNPs: 2, Samples: 100}, hostCI3(), Constraints{}); err == nil {
		t.Error("2 SNPs at order 3 accepted")
	}
	if _, err := Decide(Workload{SNPs: 100, Samples: 0}, hostCI3(), Constraints{}); err == nil {
		t.Error("0 samples accepted")
	}
	if _, err := Decide(wl, Host{}, Constraints{}); err == nil {
		t.Error("empty host accepted")
	}
}
