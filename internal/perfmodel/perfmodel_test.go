package perfmodel

import (
	"math"
	"testing"

	"trigene/internal/device"
)

// The perfmodel tests pin the modeled results to the paper's findings:
// exact values are calibration, but orderings and rough factors are the
// reproduction target.

func cpu(t *testing.T, id string) device.CPU {
	t.Helper()
	c, err := device.CPUByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func gpu(t *testing.T, id string) device.GPU {
	t.Helper()
	g, err := device.GPUByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const (
	figSNPs    = 8192
	figSamples = 16384
)

func TestICXVectorPopcntDominatesFigure3(t *testing.T) {
	ci3 := cpu(t, "CI3")
	got := CPUPerCoreGElemPerSec(ci3, true, figSNPs, figSamples)
	// Paper: ~15.4 G elements/s/core at 8192 SNPs.
	if got < 11 || got > 18 {
		t.Errorf("CI3 AVX512 per-core = %.1f G/s, want ~15.4", got)
	}
	// Paper: 2.5x over CI1 and 4.8x over AVX512 CI2.
	ci1 := CPUPerCoreGElemPerSec(cpu(t, "CI1"), false, figSNPs, figSamples)
	ci2 := CPUPerCoreGElemPerSec(cpu(t, "CI2"), true, figSNPs, figSamples)
	if r := got / ci1; r < 1.8 || r > 3.2 {
		t.Errorf("CI3/CI1 = %.2f, paper 2.5", r)
	}
	if r := got / ci2; r < 3.5 || r > 6.5 {
		t.Errorf("CI3/CI2(AVX512) = %.2f, paper 4.8", r)
	}
	// Paper: 4x over CA1 and 3x over CA2 per core.
	ca1 := CPUPerCoreGElemPerSec(cpu(t, "CA1"), false, figSNPs, figSamples)
	ca2 := CPUPerCoreGElemPerSec(cpu(t, "CA2"), false, figSNPs, figSamples)
	if r := got / ca1; r < 2.5 || r > 5.5 {
		t.Errorf("CI3/CA1 = %.2f, paper 4", r)
	}
	if r := got / ca2; r < 2.0 || r > 4.0 {
		t.Errorf("CI3/CA2 = %.2f, paper 3", r)
	}
}

func TestFigure3bPerCycleOrdering(t *testing.T) {
	// Paper: with AVX, all devices land at similar elements/cycle/core;
	// AVX512 CI3 is ~3.8x above the rest.
	ci3 := CPUPerCyclePerCore(cpu(t, "CI3"), true, figSNPs, figSamples)
	avx := []float64{
		CPUPerCyclePerCore(cpu(t, "CI1"), false, figSNPs, figSamples),
		CPUPerCyclePerCore(cpu(t, "CI2"), false, figSNPs, figSamples),
		CPUPerCyclePerCore(cpu(t, "CI3"), false, figSNPs, figSamples),
		CPUPerCyclePerCore(cpu(t, "CA1"), false, figSNPs, figSamples),
		CPUPerCyclePerCore(cpu(t, "CA2"), false, figSNPs, figSamples),
	}
	for i, v := range avx {
		if r := ci3 / v; r < 2.5 || r > 5.5 {
			t.Errorf("CI3 AVX512 / AVX device %d = %.2f, paper ~3.8", i, r)
		}
	}
	// AVX parity: max/min within 1.5x.
	minV, maxV := avx[0], avx[0]
	for _, v := range avx {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if maxV/minV > 1.5 {
		t.Errorf("AVX per-cycle spread %.2f, paper shows parity", maxV/minV)
	}
}

func TestFigure3cVectorEfficiency(t *testing.T) {
	// Paper: CA1 (128-bit pipes) and AVX512 CI3 peak at ~0.4; CA2 is
	// half of CA1; CI1 is ~2.4x CI2 (AVX512).
	ca1 := CPUPerCyclePerCoreVec(cpu(t, "CA1"), false, figSNPs, figSamples)
	ci3 := CPUPerCyclePerCoreVec(cpu(t, "CI3"), true, figSNPs, figSamples)
	ca2 := CPUPerCyclePerCoreVec(cpu(t, "CA2"), false, figSNPs, figSamples)
	ci1 := CPUPerCyclePerCoreVec(cpu(t, "CI1"), false, figSNPs, figSamples)
	ci2 := CPUPerCyclePerCoreVec(cpu(t, "CI2"), true, figSNPs, figSamples)
	for name, v := range map[string]float64{"CA1": ca1, "CI3": ci3} {
		if v < 0.3 || v > 0.55 {
			t.Errorf("%s vector efficiency = %.2f, paper ~0.4", name, v)
		}
	}
	if r := ca1 / ca2; r < 1.6 || r > 2.4 {
		t.Errorf("CA1/CA2 = %.2f, paper ~2", r)
	}
	if r := ci1 / ci2; r < 1.9 || r > 3.0 {
		t.Errorf("CI1/CI2 = %.2f, paper ~2.4", r)
	}
}

func TestFigure4aTitanXpLeadsPerCU(t *testing.T) {
	snps, samples := 2048, 16384
	gn1 := GPUPerCUGElemPerSec(gpu(t, "GN1"), snps, samples)
	gn2 := GPUPerCUGElemPerSec(gpu(t, "GN2"), snps, samples)
	gn3 := GPUPerCUGElemPerSec(gpu(t, "GN3"), snps, samples)
	gn4 := GPUPerCUGElemPerSec(gpu(t, "GN4"), snps, samples)
	// Paper: GN1 2x GN2, 1.4x GN3, 1.9x GN4.
	if r := gn1 / gn2; r < 1.6 || r > 2.6 {
		t.Errorf("GN1/GN2 = %.2f, paper 2.0", r)
	}
	if r := gn1 / gn3; r < 1.2 || r > 2.2 {
		t.Errorf("GN1/GN3 = %.2f, paper 1.4", r)
	}
	if r := gn1 / gn4; r < 1.5 || r > 2.6 {
		t.Errorf("GN1/GN4 = %.2f, paper 1.9", r)
	}
	// AMD: GA3's frequency beats GA1/GA2 per second...
	ga1 := GPUPerCUGElemPerSec(gpu(t, "GA1"), snps, samples)
	ga3 := GPUPerCUGElemPerSec(gpu(t, "GA3"), snps, samples)
	if ga3 <= ga1 {
		t.Errorf("GA3 (%.1f) should beat GA1 (%.1f) per second/CU", ga3, ga1)
	}
	// ...but loses per cycle (Figure 4b).
	if GPUPerCyclePerCU(gpu(t, "GA3"), snps, samples) >= GPUPerCyclePerCU(gpu(t, "GA1"), snps, samples) {
		t.Error("GA1 should beat GA3 per cycle/CU")
	}
	// Intel: GI2 slightly ahead per second, equal per cycle.
	gi1, gi2 := gpu(t, "GI1"), gpu(t, "GI2")
	if GPUPerCUGElemPerSec(gi2, snps, samples) <= GPUPerCUGElemPerSec(gi1, snps, samples) {
		t.Error("GI2 should beat GI1 per second/CU")
	}
	if math.Abs(GPUPerCyclePerCU(gi1, snps, samples)-GPUPerCyclePerCU(gi2, snps, samples)) > 1e-9 {
		t.Error("GI1 and GI2 should tie per cycle/CU")
	}
}

func TestFigure4cStreamCoreOccupancy(t *testing.T) {
	snps, samples := 8192, 16384
	// Paper: NVIDIA/Intel between ~0.23-0.27, AMD 0.175-0.21.
	for _, id := range []string{"GN1", "GN2", "GN3", "GN4", "GI1", "GI2"} {
		v := GPUPerCyclePerStreamCore(gpu(t, id), snps, samples)
		if v < 0.15 || v > 0.40 {
			t.Errorf("%s per stream core = %.3f, paper 0.23-0.27", id, v)
		}
	}
	for _, id := range []string{"GA1", "GA2", "GA3"} {
		v := GPUPerCyclePerStreamCore(gpu(t, id), snps, samples)
		if v < 0.08 || v > 0.25 {
			t.Errorf("%s per stream core = %.3f, paper 0.175-0.21", id, v)
		}
	}
	// AMD occupancy below NVIDIA's.
	if GPUPerCyclePerStreamCore(gpu(t, "GA1"), snps, samples) >=
		GPUPerCyclePerStreamCore(gpu(t, "GN2"), snps, samples) {
		t.Error("AMD stream-core occupancy should trail NVIDIA")
	}
}

func TestSectionVDOverall(t *testing.T) {
	rows := Overall(8192, 16384)
	if len(rows) != 14 {
		t.Fatalf("Overall rows = %d, want 14 (5 CPU + 9 GPU)", len(rows))
	}
	byID := map[string]OverallRow{}
	for _, r := range rows {
		byID[r.DeviceID] = r
	}
	// Paper: GN3 ~2200, CI3 ~1100 (half), CI1 ~36.5, CA1 ~241 G elem/s.
	if v := byID["GN3"].GElems; v < 1500 || v > 3000 {
		t.Errorf("GN3 overall = %.0f, paper ~2200", v)
	}
	if v := byID["CI3"].GElems; v < 700 || v > 1500 {
		t.Errorf("CI3 overall = %.0f, paper ~1100", v)
	}
	if r := byID["GN3"].GElems / byID["CI3"].GElems; r < 1.4 || r > 3.0 {
		t.Errorf("GN3/CI3 = %.2f, paper ~2", r)
	}
	if v := byID["CI1"].GElems; v < 20 || v > 60 {
		t.Errorf("CI1 overall = %.0f, paper ~36.5", v)
	}
	if v := byID["CA1"].GElems; v < 150 || v > 400 {
		t.Errorf("CA1 overall = %.0f, paper ~241", v)
	}
	// Paper: only A100 surpasses MI100; MI100 beats Titan RTX.
	if byID["GA2"].GElems <= byID["GN3"].GElems {
		t.Error("MI100 should beat Titan RTX overall")
	}
	if byID["GN4"].GElems <= byID["GA2"].GElems {
		t.Error("A100 should beat MI100 overall")
	}
	// Efficiency: GI2 (25 W) is the most efficient device.
	best := rows[0]
	for _, r := range rows {
		if r.GElemsPerJoule > best.GElemsPerJoule {
			best = r
		}
	}
	if best.DeviceID != "GI2" {
		t.Errorf("most efficient device = %s, paper says GI2", best.DeviceID)
	}
	// Paper: GI2 ~11.3 vs GN3 ~7.9 G elements/J.
	if r := byID["GI2"].GElemsPerJoule / byID["GN3"].GElemsPerJoule; r < 1.0 || r > 2.5 {
		t.Errorf("GI2/GN3 efficiency = %.2f, paper 1.43", r)
	}
}

func TestTable3SpeedupShape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(table3Baselines) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OursGElems <= 0 {
			t.Errorf("%s %s: no modeled throughput", r.Work, r.DeviceID)
		}
		if r.SoAGElems == 0 {
			continue // N/A baseline
		}
		switch {
		case r.Work == "MPI3SNP" && r.IsGPU:
			// Paper: 1.49-1.64x small, 3.3-3.8x large.
			want := r.PaperSpeedup
			if r.Speedup < want*0.5 || r.Speedup > want*2 {
				t.Errorf("MPI3SNP %s %dx%d: speedup %.2f, paper %.2f", r.DeviceID, r.SNPs, r.Samples, r.Speedup, want)
			}
		case r.Work == "MPI3SNP":
			// CPU rows: large gains, growing with dataset size.
			if r.Speedup < 2 {
				t.Errorf("MPI3SNP CPU %s: speedup %.2f, paper %.2f", r.DeviceID, r.Speedup, r.PaperSpeedup)
			}
		case r.Work == "Nobre et al. [29]":
			// Paper: parity (0.89-1.05x).
			if r.Speedup < 0.6 || r.Speedup > 1.6 {
				t.Errorf("[29] %s: speedup %.2f, paper %.2f", r.DeviceID, r.Speedup, r.PaperSpeedup)
			}
		case r.Work == "Campos et al. [30]":
			// Paper: ~10.5x.
			if r.Speedup < 3 || r.Speedup > 25 {
				t.Errorf("[30] %s: speedup %.2f, paper %.2f", r.DeviceID, r.Speedup, r.PaperSpeedup)
			}
		}
	}
	// The big-dataset CPU row is the headline: ~21x on CI3 because
	// MPI3SNP's throughput stays flat while ours grows with N.
	var small, large float64
	for _, r := range rows {
		if r.Work == "MPI3SNP" && r.DeviceID == "CI3" {
			if r.SNPs == 10000 {
				small = r.Speedup
			} else {
				large = r.Speedup
			}
		}
	}
	if large <= small {
		t.Errorf("CI3 speedup should grow with dataset: %.1f -> %.1f", small, large)
	}
}

func TestCPUApproachProgression(t *testing.T) {
	// Figure 2a story on CI3: V2 processes elements ~2x faster than V1,
	// V3 ~1.2x over V2, V4 well above V3, total near an order of
	// magnitude.
	ci3 := cpu(t, "CI3")
	var rate [7]float64
	for a := 1; a <= 6; a++ {
		v, err := CPUApproachGElemPerSec(ci3, a, true, 2048, 16384)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Fatalf("approach %d rate = %g", a, v)
		}
		rate[a] = v
	}
	if r := rate[2] / rate[1]; r < 1.3 || r > 2.8 {
		t.Errorf("V2/V1 = %.2f, paper ~2", r)
	}
	if r := rate[3] / rate[2]; r < 1.05 || r > 1.5 {
		t.Errorf("V3/V2 = %.2f, paper ~1.2", r)
	}
	if r := rate[4] / rate[3]; r < 2 {
		t.Errorf("V4/V3 = %.2f, paper ~7.5 (smaller without real SIMD)", r)
	}
	// Fused variants: V3F modestly above V3 (fewer scalar ops), V4F
	// modestly above V4 (smaller pre-popcount budget) — each the best
	// of its pipeline class.
	if r := rate[5] / rate[3]; r < 1.05 || r > 1.3 {
		t.Errorf("V3F/V3 = %.2f, want the 93/82 scalar-op ratio", r)
	}
	if r := rate[6] / rate[4]; r <= 1 || r > 1.3 {
		t.Errorf("V4F/V4 = %.2f, want a modest fused gain", r)
	}
	if _, err := CPUApproachGElemPerSec(ci3, 7, true, 2048, 16384); err == nil {
		t.Error("approach 7 accepted")
	}
}

func TestApproachCosts(t *testing.T) {
	v1, err := CostOf(1)
	if err != nil {
		t.Fatal(err)
	}
	if v1.AI() != 162.0/40 {
		t.Errorf("V1 AI = %g, want 4.05", v1.AI())
	}
	v2, err := CostOf(2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.AI() != 57.0/24 {
		t.Errorf("V2 AI = %g, want 2.375", v2.AI())
	}
	// AI drops from V1 to V2 (the paper's key CARM observation).
	if v2.AI() >= v1.AI() {
		t.Error("V2 AI should be below V1 AI")
	}
	if v1.OpsPerElement() != 162.0/32 {
		t.Errorf("V1 ops/element = %g", v1.OpsPerElement())
	}
	for _, a := range []int{3, 4} {
		c, err := CostOf(a)
		if err != nil || c != v2 {
			t.Errorf("approach %d cost should equal V2's", a)
		}
	}
	// The fused variants execute fewer ops per element but touch the
	// nine cached pair planes, so their AI sits below V2's while the
	// op count drops from 57 to 55.
	vf, err := CostOf(6)
	if err != nil {
		t.Fatal(err)
	}
	if vf.AI() != 55.0/44 || vf.AI() >= v2.AI() {
		t.Errorf("V4F AI = %g, want 1.25 (below V2's %g)", vf.AI(), v2.AI())
	}
	if v3f, err := CostOf(5); err != nil || v3f != vf {
		t.Error("approach 5 cost should equal V4F's")
	}
	if _, err := CostOf(9); err == nil {
		t.Error("unknown approach accepted")
	}
	if ApproachName(4) != "V4" || ApproachName(5) != "V3F" || ApproachName(6) != "V4F" {
		t.Error("approach names wrong")
	}
}

func TestEfficiencyFactorsMonotone(t *testing.T) {
	prevM, prevNC, prevNG := 0.0, 0.0, 0.0
	for _, m := range []int{512, 1024, 2048, 8192, 40000} {
		v := SNPEfficiency(m)
		if v <= prevM || v >= 1 {
			t.Errorf("SNPEfficiency(%d) = %.3f not monotone in (0,1)", m, v)
		}
		prevM = v
	}
	for _, n := range []int{400, 1600, 6400, 16384} {
		c, g := CPUSampleEfficiency(n), GPUSampleEfficiency(n)
		if c <= prevNC || g <= prevNG || c >= 1 || g >= 1 {
			t.Errorf("sample efficiency at %d not monotone: cpu %.3f gpu %.3f", n, c, g)
		}
		prevNC, prevNG = c, g
	}
	// GPUs amortize faster than CPUs at small N.
	if GPUSampleEfficiency(1600) <= CPUSampleEfficiency(1600) {
		t.Error("GPU sample efficiency should exceed CPU's at N=1600")
	}
}

func TestGElemPerJoule(t *testing.T) {
	if GElemPerJoule(282.1, 25) < 11 || GElemPerJoule(282.1, 25) > 12 {
		t.Errorf("GI2 efficiency example = %.2f, want ~11.3", GElemPerJoule(282.1, 25))
	}
}
