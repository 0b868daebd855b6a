package plan

import (
	"testing"

	"trigene/internal/device"
	"trigene/internal/sched"
)

func hostCI3() Host {
	c, err := device.CPUByID("CI3")
	if err != nil {
		panic(err)
	}
	return Host{CPU: c}
}

func gpuByID(t *testing.T, id string) *device.GPU {
	t.Helper()
	g, err := device.GPUByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return &g
}

var wl = Workload{SNPs: 4096, Samples: 16384}

func TestDecideCPUOnlyPicksWinningKernel(t *testing.T) {
	p, err := Decide(wl, hostCI3(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "cpu" {
		t.Errorf("backend = %q, want cpu (no accelerator on the host)", p.Backend)
	}
	if p.Approach != "V4F" {
		t.Errorf("approach = %q, want V4F (the fused winning CPU kernel)", p.Approach)
	}
	if p.CPUFraction != 1 || p.PredictedGPUGElems != 0 {
		t.Errorf("pure CPU plan carries a GPU share: frac=%g gpu=%g", p.CPUFraction, p.PredictedGPUGElems)
	}
	if p.PredictedCPUGElems <= 0 || p.PredictedCombosPerSec <= 0 || p.PredictedTilesPerSec <= 0 {
		t.Errorf("predictions not populated: %+v", p)
	}
	if p.Grain < sched.MinGrain || p.Grain > sched.MaxGrain {
		t.Errorf("grain %d outside [%d, %d]", p.Grain, sched.MinGrain, sched.MaxGrain)
	}
	if p.Reason == "" {
		t.Error("empty decision trace")
	}
}

func TestDecideLiveHost(t *testing.T) {
	p, err := Decide(Workload{SNPs: 64, Samples: 2048}, LiveHost(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "cpu" || p.CPUDevice != "HOST" {
		t.Errorf("live-host plan: backend=%q device=%q", p.Backend, p.CPUDevice)
	}
	if p.Workers < 1 {
		t.Errorf("workers = %d", p.Workers)
	}
}

func TestDecideHeteroPair(t *testing.T) {
	h := hostCI3()
	h.GPU = gpuByID(t, "GN1")
	p, err := Decide(wl, h, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// CI3 and GN1 are the paper's Section V-D pairing: both sides
	// contribute, so the planner must place the run heterogeneously.
	if p.Backend != "hetero" {
		t.Fatalf("backend = %q, want hetero", p.Backend)
	}
	if p.CPUFraction <= 0 || p.CPUFraction >= 1 {
		t.Errorf("split = %g, want inside (0,1)", p.CPUFraction)
	}
	if p.GPUGrains < 1 || p.GPUGrains > maxGPUGrains {
		t.Errorf("GPU grains = %d", p.GPUGrains)
	}
	if p.PredictedCPUGElems <= 0 || p.PredictedGPUGElems <= 0 {
		t.Errorf("one side predicted idle: %+v", p)
	}
	// The split is throughput-proportional.
	want := p.PredictedCPUGElems / (p.PredictedCPUGElems + p.PredictedGPUGElems)
	if diff := p.CPUFraction - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("split %g, want %g", p.CPUFraction, want)
	}
}

func TestDecideLopsidedPairDropsSlowSide(t *testing.T) {
	// CI1 (6 desktop cores) against an A100: the CPU contributes noise,
	// so the planner goes device-only.
	c, err := device.CPUByID("CI1")
	if err != nil {
		t.Fatal(err)
	}
	h := Host{CPU: c, GPU: gpuByID(t, "GN4")}
	p, err := Decide(wl, h, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "gpusim:GN4" {
		t.Errorf("backend = %q, want gpusim:GN4", p.Backend)
	}
	if p.CPUFraction != 0 {
		t.Errorf("CPU fraction = %g on a device-only plan", p.CPUFraction)
	}
}

func TestDecideHonorsConstraints(t *testing.T) {
	p, err := Decide(wl, hostCI3(), Constraints{Backend: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "baseline" || p.Approach != "mpi3snp" {
		t.Errorf("baseline constraint: backend=%q approach=%q", p.Backend, p.Approach)
	}

	p, err = Decide(wl, hostCI3(), Constraints{Approach: "V2"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Approach != "V2" {
		t.Errorf("approach constraint: %q", p.Approach)
	}

	// A gpusim constraint supplies its own device model.
	p, err = Decide(wl, hostCI3(), Constraints{Backend: "gpusim:GI2"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "gpusim:GI2" || p.GPUDevice != "GI2" || p.PredictedGPUGElems <= 0 {
		t.Errorf("gpusim constraint: %+v", p)
	}

	if _, err := Decide(wl, hostCI3(), Constraints{Backend: "gpusim:NOPE"}); err == nil {
		t.Error("unknown gpusim device accepted")
	}
	p, err = Decide(wl, hostCI3(), Constraints{Approach: "V4F"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Approach != "V4F" {
		t.Errorf("fused approach constraint: %q", p.Approach)
	}
	p, err = Decide(wl, hostCI3(), Constraints{Approach: "V5"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Approach != "V3F" {
		t.Errorf("numeric fused approach constraint: %q", p.Approach)
	}
	if _, err := Decide(wl, hostCI3(), Constraints{Approach: "V9"}); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestDecideOrderGeneric(t *testing.T) {
	p, err := Decide(Workload{SNPs: 500, Samples: 4000, Order: 4}, hostCI3(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// Orders beyond 3 run the flat split kernel.
	if p.Approach != "V2" {
		t.Errorf("order-4 approach = %q, want V2", p.Approach)
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
