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

// TestDecideCPUPricesDefaultKernel: the empty constraint prices the cpu
// backend running the engine default, V4F, and restates the rate in
// combinations per second.
func TestDecideCPUPricesDefaultKernel(t *testing.T) {
	p, err := Decide(wl, hostCI3(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "cpu" {
		t.Errorf("backend = %q, want cpu (the empty constraint)", p.Backend)
	}
	v4f, err := Decide(wl, hostCI3(), Constraints{Approach: 6})
	if err != nil {
		t.Fatal(err)
	}
	if *p != *v4f {
		t.Errorf("default plan %+v, want the V4F plan %+v", p, v4f)
	}
	if p.PredictedCPUGElems <= 0 {
		t.Fatalf("predictions not populated: %+v", p)
	}
	if want := p.PredictedCPUGElems * 1e9 / float64(wl.Samples); math.Abs(p.PredictedCombosPerSec-want) > 1e-6*want {
		t.Errorf("combos/s %g, want %g", p.PredictedCombosPerSec, want)
	}
}

// TestDecideLiveHost: on the live host's model an unconstrained plan
// prices the engine default V4F at every benchmark shape and beyond.
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
		v4f, err := Decide(w, LiveHost(), Constraints{Approach: 6})
		if err != nil {
			t.Fatal(err)
		}
		if p.Backend != "cpu" || p.PredictedCPUGElems <= 0 || *p != *v4f {
			t.Errorf("%d x %d live-host plan %+v, V4F plan %+v", w.SNPs, w.Samples, p, v4f)
		}
	}
}

// TestDecidePinnedHeteroPricesV2: hetero's CPU half runs V2, so a hetero
// plan adds GN1's rate to the V2 rate. The CPU share of that sum is
// 0.154; priced as V4F instead, the same share read 0.406.
func TestDecidePinnedHeteroPricesV2(t *testing.T) {
	w := Workload{SNPs: 96, Samples: 16384}
	p, err := Decide(w, hostCI3(), Constraints{Backend: "hetero", Approach: 2})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := Decide(w, hostCI3(), Constraints{Approach: 2})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Decide(w, hostCI3(), Constraints{Backend: "gpusim:GN1"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "hetero" || p.PredictedCPUGElems != cpu.PredictedCPUGElems {
		t.Fatalf("hetero plan %+v, V2 plan %+v", p, cpu)
	}
	if sum := cpu.PredictedCombosPerSec + gpu.PredictedCombosPerSec; math.Abs(p.PredictedCombosPerSec-sum) > 1e-9*sum {
		t.Errorf("hetero combos/s %g, want V2 + GN1 = %g", p.PredictedCombosPerSec, sum)
	}
	if share := cpu.PredictedCombosPerSec / p.PredictedCombosPerSec; math.Abs(share-0.154) > 0.0005 {
		t.Errorf("CPU share %.4f, want 0.154", share)
	}
}

func TestDecideHonorsConstraints(t *testing.T) {
	rate := func(c Constraints) float64 {
		t.Helper()
		p, err := Decide(wl, hostCI3(), c)
		if err != nil {
			t.Fatal(err)
		}
		if p.PredictedCPUGElems <= 0 {
			t.Fatalf("%+v: no CPU rate: %+v", c, p)
		}
		return p.PredictedCPUGElems
	}
	// The approach is what is priced, on cpu and baseline alike.
	if rate(Constraints{Backend: "baseline", Approach: 1}) != rate(Constraints{Approach: 1}) {
		t.Error("baseline V1 priced unlike cpu V1")
	}
	if rate(Constraints{Approach: 2}) == rate(Constraints{Approach: 6}) {
		t.Error("V2 and V4F priced alike")
	}
	rate(Constraints{Approach: 5})

	// A gpusim constraint supplies its own device model and prices no
	// CPU kernel.
	p, err := Decide(wl, hostCI3(), Constraints{Backend: "gpusim:GI2", Approach: 6})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "gpusim:GI2" || p.PredictedCPUGElems != 0 || p.PredictedCombosPerSec <= 0 {
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
	if p.PredictedCPUGElems <= 0 {
		t.Errorf("order-4 plan: predicted %g", p.PredictedCPUGElems)
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
