package carm

import (
	"math"
	"math/rand"
	"testing"

	"trigene/internal/dataset"
	"trigene/internal/device"
	"trigene/internal/gpusim"
	"trigene/internal/perfmodel"
)

func ci3(t *testing.T) device.CPU {
	t.Helper()
	c, err := device.CPUByID("CI3")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func gi2(t *testing.T) device.GPU {
	t.Helper()
	g, err := device.GPUByID("GI2")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCPUModelRoofs(t *testing.T) {
	m := CPUModel(ci3(t), true)
	vec, err := m.RoofByName("Int32 Vector ADD Peak")
	if err != nil {
		t.Fatal(err)
	}
	// 72 cores x 2.4 GHz x 16 lanes x 2 ports = 5529.6 GINTOPS.
	if vec.Value < 5500 || vec.Value > 5560 {
		t.Errorf("vector peak = %.0f, want ~5530", vec.Value)
	}
	scalar, err := m.RoofByName("Scalar ADD Peak")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scalar.Value-72*2.4*4) > 0.01 {
		t.Errorf("scalar peak = %f", scalar.Value)
	}
	// Memory hierarchy ordering: L1 > L2 > L3 > DRAM.
	names := []string{"L1->C", "L2->C", "L3->C", "DRAM->C"}
	prev := 0.0
	for i := len(names) - 1; i >= 0; i-- {
		r, err := m.RoofByName(names[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != Memory {
			t.Errorf("%s should be a memory roof", names[i])
		}
		if r.Value <= prev {
			t.Errorf("%s (%.0f GB/s) should exceed the level below (%.0f)", names[i], r.Value, prev)
		}
		prev = r.Value
	}
	// AVX build has lower ceilings than AVX-512.
	avx := CPUModel(ci3(t), false)
	avxVec, _ := avx.RoofByName("Int32 Vector ADD Peak")
	if avxVec.Value >= vec.Value {
		t.Error("AVX vector peak should be below AVX-512's")
	}
}

func TestGPUModelRoofs(t *testing.T) {
	m := GPUModel(gi2(t))
	add, err := m.RoofByName("Int32 Vector ADD Peak")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(add.Value-768*1.65) > 0.01 {
		t.Errorf("GI2 ADD peak = %f, want %f", add.Value, 768*1.65)
	}
	pop, err := m.RoofByName("POPCNT Peak")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pop.Value-96*4*1.65) > 0.01 {
		t.Errorf("GI2 POPCNT peak = %f", pop.Value)
	}
	if _, err := m.RoofByName("L1->C"); err == nil {
		t.Error("GPU model should not expose an L1 roof")
	}
}

func TestAttainable(t *testing.T) {
	m := Model{Roofs: []Roof{
		{Name: "comp", Kind: Compute, Value: 100},
		{Name: "mem", Kind: Memory, Value: 10},
	}}
	if got := m.Attainable(1); got != 10 {
		t.Errorf("Attainable(1) = %g, want 10 (memory bound)", got)
	}
	if got := m.Attainable(100); got != 100 {
		t.Errorf("Attainable(100) = %g, want 100 (compute bound)", got)
	}
	if got := m.Attainable(10); got != 100 {
		t.Errorf("Attainable(10) = %g, want exactly the ridge", got)
	}
}

func TestCPUPointsFigure2aShape(t *testing.T) {
	m := CPUModel(ci3(t), true)
	pts, err := CPUPoints(ci3(t), true, 2048, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	v1, v2, v3, v4 := pts[0], pts[1], pts[2], pts[3]
	v3f, v4f := pts[4], pts[5]
	// Paper: AI drops from V1 to V2 and stays there.
	if !(v2.AI < v1.AI) || v2.AI != v3.AI || v3.AI != v4.AI {
		t.Errorf("AI progression wrong: %g %g %g %g", v1.AI, v2.AI, v3.AI, v4.AI)
	}
	// Paper: V2 shows an apparent GINTOPS drop despite the ~2x element
	// speedup (fewer ops per element).
	if !(v2.GIntops < v1.GIntops) {
		t.Errorf("V2 GINTOPS (%.0f) should apparently drop below V1 (%.0f)", v2.GIntops, v1.GIntops)
	}
	// V3 improves over V2; V4 is the top performer.
	if !(v3.GIntops > v2.GIntops) || !(v4.GIntops > v3.GIntops) {
		t.Errorf("performance progression wrong: %.0f %.0f %.0f", v2.GIntops, v3.GIntops, v4.GIntops)
	}
	// The fused points sit at a lower AI (cached pair planes count as
	// touched bytes) and each fused variant outpaces its unfused
	// pipeline in element rate, which at 55 vs 57 ops/word still means
	// more GINTOPS at the lower intensity is not guaranteed — compare
	// element rates via ops/element instead.
	if !(v3f.AI < v2.AI) || v3f.AI != v4f.AI {
		t.Errorf("fused AI wrong: %g %g (V2 %g)", v3f.AI, v4f.AI, v2.AI)
	}
	cost2, _ := perfmodel.CostOf(3)
	costF, _ := perfmodel.CostOf(5)
	if v3f.GIntops/costF.OpsPerElement() <= v3.GIntops/cost2.OpsPerElement() {
		t.Error("V3F element rate should exceed V3's")
	}
	if v4f.GIntops/costF.OpsPerElement() <= v4.GIntops/cost2.OpsPerElement() {
		t.Error("V4F element rate should exceed V4's")
	}
	// No point exceeds its roofline ceiling.
	for _, p := range pts {
		if p.GIntops > m.Attainable(p.AI)*1.001 {
			t.Errorf("%s at %.0f GINTOPS exceeds ceiling %.0f", p.Name, p.GIntops, m.Attainable(p.AI))
		}
	}
}

func TestGPUPointsFromSimulator(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	mx := dataset.NewMatrix(16, 256)
	for i := 0; i < 16; i++ {
		row := mx.Row(i)
		for j := range row {
			row[j] = uint8(r.Intn(3))
		}
	}
	for j := 0; j < 256; j++ {
		mx.SetPhen(j, uint8(j%2))
	}
	runner := gpusim.New(gi2(t))
	model := GPUModel(gi2(t))
	var pts []Point
	for k := gpusim.K1Naive; k <= gpusim.K4Tiled; k++ {
		res, err := runner.Search(encStore(mx), gpusim.Options{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, PointFromGPUStats(k.String(), res.Stats))
	}
	// Figure 2b shape: AI drops V1 -> V2 (same data, fewer ops);
	// V3/V4 outperform V2 strongly.
	if !(pts[1].AI < pts[0].AI) {
		t.Errorf("V2 AI (%.2f) should be below V1 (%.2f)", pts[1].AI, pts[0].AI)
	}
	if !(pts[2].GIntops > pts[1].GIntops) {
		t.Errorf("V3 (%.1f) should beat V2 (%.1f)", pts[2].GIntops, pts[1].GIntops)
	}
	for _, p := range pts {
		if p.AI <= 0 || p.GIntops <= 0 {
			t.Errorf("%s point not populated: %+v", p.Name, p)
		}
		if p.GIntops > model.Attainable(p.AI)*1.01 {
			t.Errorf("%s exceeds roofline", p.Name)
		}
	}
}

func TestPointFromGPUStatsZeroSafe(t *testing.T) {
	p := PointFromGPUStats("empty", gpusim.Stats{})
	if p.AI != 0 || p.GIntops != 0 {
		t.Error("zero stats should give zero point")
	}
}

func TestRoofByNameMissing(t *testing.T) {
	m := CPUModel(ci3(t), true)
	if _, err := m.RoofByName("nope"); err == nil {
		t.Error("missing roof accepted")
	}
}
