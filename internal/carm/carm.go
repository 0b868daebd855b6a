// Package carm implements the Cache-Aware Roofline Model (Ilic et al.,
// IEEE CAL 2014) characterization the paper uses to pick the best
// epistasis approach per device (Figure 2).
//
// A model is a set of roofs: compute ceilings in GINTOPS and memory
// bandwidth slopes in GB/s for each level of the memory hierarchy seen
// from the core (L1->C ... DRAM->C). An application point is an
// (arithmetic intensity, performance) pair; the paper's Figure 2 plots
// the four CPU and four GPU approaches against the roofs of Ice Lake SP
// and Iris Xe MAX.
//
// Roof values are derived from the device catalog; application points
// come from the analytical approach models (CPU) or the GPU simulator's
// executed-operation statistics (GPU).
package carm

import (
	"fmt"

	"trigene/internal/device"
	"trigene/internal/gpusim"
	"trigene/internal/perfmodel"
)

// RoofKind distinguishes compute ceilings from memory slopes.
type RoofKind int

const (
	// Compute roofs are horizontal ceilings in GINTOPS.
	Compute RoofKind = iota
	// Memory roofs are bandwidth slopes in GB/s: attainable GINTOPS at
	// intensity AI is Value * AI.
	Memory
)

// Roof is one ceiling or slope of a CARM plot.
type Roof struct {
	Name  string
	Kind  RoofKind
	Value float64 // GINTOPS (Compute) or GB/s (Memory)
}

// Model is the CARM of one device.
type Model struct {
	Device string
	Roofs  []Roof
}

// Point is one application's position on the CARM plot.
type Point struct {
	Name    string
	AI      float64 // intops / byte
	GIntops float64
}

// CPUModel builds the roofline of a Table I CPU for the chosen vector
// build. Compute ceilings assume 2 vector ALU ports and 4 scalar ports;
// L1 bandwidth assumes two vector loads per cycle, L2 half of L1, and
// the L3/DRAM slopes come from the catalog's sustained bandwidths.
func CPUModel(c device.CPU, avx512 bool) Model {
	cores := float64(c.TotalCores())
	ghz := c.BaseGHz
	lanes := float64(c.VectorInt32Lanes(avx512))
	vecBytes := lanes * 4
	return Model{
		Device: c.Name,
		Roofs: []Roof{
			{Name: "Int32 Vector ADD Peak", Kind: Compute, Value: cores * ghz * lanes * 2},
			{Name: "Scalar ADD Peak", Kind: Compute, Value: cores * ghz * 4},
			{Name: "L1->C", Kind: Memory, Value: cores * ghz * 2 * vecBytes},
			{Name: "L2->C", Kind: Memory, Value: cores * ghz * vecBytes},
			{Name: "L3->C", Kind: Memory, Value: c.L3GBs * float64(c.Sockets)},
			{Name: "DRAM->C", Kind: Memory, Value: c.DRAMGBs * float64(c.Sockets)},
		},
	}
}

// GPUModel builds the roofline of a Table II GPU: an int32 ALU ceiling
// over the stream cores, a POPCNT ceiling over the dedicated units, and
// three memory slopes. The top slope (SLM->C, the paper's Figure 2b
// label) is the per-CU load path on the requested-bytes axis: warp
// loads that coalesce or broadcast are served at this rate even though
// they transact far fewer bytes at L2.
func GPUModel(g device.GPU) Model {
	return Model{
		Device: g.Name,
		Roofs: []Roof{
			{Name: "Int32 Vector ADD Peak", Kind: Compute, Value: float64(g.StreamCores) * g.BoostGHz},
			{Name: "POPCNT Peak", Kind: Compute, Value: float64(g.CUs) * g.PopcntPerCU * g.BoostGHz},
			{Name: "SLM->C", Kind: Memory, Value: float64(g.CUs) * 64 * g.BoostGHz},
			{Name: "L2->C", Kind: Memory, Value: g.L2BytesPerCycle * g.BoostGHz},
			{Name: "DRAM->C", Kind: Memory, Value: g.DRAMGBs},
		},
	}
}

// Attainable returns the roofline ceiling at the given arithmetic
// intensity: the best memory slope capped by the best compute ceiling.
func (m Model) Attainable(ai float64) float64 {
	var bestMem, bestComp float64
	for _, r := range m.Roofs {
		switch r.Kind {
		case Memory:
			if v := r.Value * ai; v > bestMem {
				bestMem = v
			}
		case Compute:
			if r.Value > bestComp {
				bestComp = r.Value
			}
		}
	}
	if bestMem < bestComp {
		return bestMem
	}
	return bestComp
}

// RoofByName returns the named roof.
func (m Model) RoofByName(name string) (Roof, error) {
	for _, r := range m.Roofs {
		if r.Name == name {
			return r, nil
		}
	}
	return Roof{}, fmt.Errorf("carm: no roof %q on %s", name, m.Device)
}

// CapElemRate caps a modeled element rate (G elements/s) by the
// roofline ceiling at the approach's arithmetic intensity — the
// planner's sanity bound: an analytical throughput projection may not
// exceed what the device's roofs admit.
func CapElemRate(m Model, cost perfmodel.ApproachCost, gElemPerSec float64) float64 {
	ops := cost.OpsPerElement()
	if ops <= 0 {
		return gElemPerSec
	}
	if ceiling := m.Attainable(cost.AI()) / ops; gElemPerSec > ceiling {
		return ceiling
	}
	return gElemPerSec
}

// CPUPoints characterizes the CPU approaches on a device — the paper's
// four plus the fused variants V3F/V4F: the element rates come from
// the analytical models, converted to GINTOPS with the per-approach
// operation counts, at the per-approach arithmetic intensities.
func CPUPoints(c device.CPU, avx512 bool, snps, samples int) ([]Point, error) {
	points := make([]Point, 0, 6)
	for a := 1; a <= 6; a++ {
		cost, err := perfmodel.CostOf(a)
		if err != nil {
			return nil, err
		}
		rate, err := perfmodel.CPUApproachGElemPerSec(c, a, avx512, snps, samples)
		if err != nil {
			return nil, err
		}
		points = append(points, Point{
			Name:    perfmodel.ApproachName(a),
			AI:      cost.AI(),
			GIntops: rate * cost.OpsPerElement(),
		})
	}
	return points, nil
}

// PointFromGPUStats characterizes one simulated GPU kernel run: the
// intensity is executed operations over requested bytes, and the
// performance is executed operations over modeled time.
func PointFromGPUStats(name string, st gpusim.Stats) Point {
	ops := float64(st.ALUOps + st.PopcntOps)
	p := Point{Name: name}
	if st.RequestedBytes > 0 {
		p.AI = ops / float64(st.RequestedBytes)
	}
	if st.ModelSeconds > 0 {
		p.GIntops = ops / st.ModelSeconds / 1e9
	}
	return p
}
