// Package energy models power consumption and energy efficiency of the
// epistasis kernels under dynamic voltage-frequency scaling — the
// paper's stated future direction ("inclusion of DVFS techniques to
// further improve the efficiency of bioinformatics applications").
//
// The model is the standard CMOS decomposition: device power splits
// into a frequency-independent static part and a dynamic part scaling
// cubically with frequency (voltage tracks frequency on the DVFS
// curve),
//
//	P(f) = Pstatic + Pdynamic * (f/f0)^3
//
// while the best epistasis approaches are compute bound (Section V-D),
// so throughput scales linearly with frequency. Energy efficiency
// rate(f)/P(f) then has the closed-form optimum
//
//	f* = f0 * cbrt(Pstatic / (2 * Pdynamic))
//
// clamped to the device's DVFS range.
package energy

import (
	"fmt"
	"math"

	"trigene/internal/device"
	"trigene/internal/perfmodel"
)

// DVFSModel describes one device's frequency/power/throughput surface
// for the best epistasis kernel at a fixed workload.
type DVFSModel struct {
	Device     string
	NominalGHz float64
	// StaticWatts is the frequency-independent power (leakage, uncore,
	// memory). DynamicWatts is the switching power at NominalGHz;
	// their sum is the device TDP.
	StaticWatts  float64
	DynamicWatts float64
	// RateAtNominal is the modeled throughput at NominalGHz, in
	// G elements/s.
	RateAtNominal float64
	// MinGHz and MaxGHz bound the DVFS range.
	MinGHz, MaxGHz float64
}

// staticShare is the assumed static fraction of TDP at nominal
// frequency (a typical value for the modeled process nodes).
const staticShare = 0.3

// ForCPU builds the DVFS model of a Table I CPU at the given workload
// (AVX-512 build on devices that support it, as in Section V-D).
func ForCPU(c device.CPU, snps, samples int) DVFSModel {
	tdp := c.TDPWatts * float64(c.Sockets)
	return DVFSModel{
		Device:        c.ID,
		NominalGHz:    c.BaseGHz,
		StaticWatts:   tdp * staticShare,
		DynamicWatts:  tdp * (1 - staticShare),
		RateAtNominal: perfmodel.CPUOverallGElemPerSec(c, true, snps, samples),
		MinGHz:        c.BaseGHz * 0.4,
		MaxGHz:        c.BaseGHz * 1.2,
	}
}

// ForGPU builds the DVFS model of a Table II GPU at the given workload.
func ForGPU(g device.GPU, snps, samples int) DVFSModel {
	return DVFSModel{
		Device:        g.ID,
		NominalGHz:    g.BoostGHz,
		StaticWatts:   g.TDPWatts * staticShare,
		DynamicWatts:  g.TDPWatts * (1 - staticShare),
		RateAtNominal: perfmodel.GPUOverallGElemPerSec(g, snps, samples),
		MinGHz:        g.BoostGHz * 0.4,
		MaxGHz:        g.BoostGHz,
	}
}

// PowerAt returns the modeled power draw (watts) at the given clock.
func (m DVFSModel) PowerAt(ghz float64) float64 {
	r := ghz / m.NominalGHz
	return m.StaticWatts + m.DynamicWatts*r*r*r
}

// RateAt returns the modeled throughput (G elements/s) at the given
// clock: the kernel is compute bound, so the rate is linear in
// frequency.
func (m DVFSModel) RateAt(ghz float64) float64 {
	return m.RateAtNominal * ghz / m.NominalGHz
}

// EfficiencyAt returns G elements per joule at the given clock.
func (m DVFSModel) EfficiencyAt(ghz float64) float64 {
	return m.RateAt(ghz) / m.PowerAt(ghz)
}

// OptimalGHz returns the clock maximizing energy efficiency within the
// DVFS range: f* = f0 * cbrt(Ps / (2 Pd)), clamped.
func (m DVFSModel) OptimalGHz() float64 {
	f := m.NominalGHz * math.Cbrt(m.StaticWatts/(2*m.DynamicWatts))
	if f < m.MinGHz {
		return m.MinGHz
	}
	if f > m.MaxGHz {
		return m.MaxGHz
	}
	return f
}

// SweepPoint is one frequency step of a DVFS sweep.
type SweepPoint struct {
	GHz        float64
	Watts      float64
	GElems     float64
	Efficiency float64 // G elements/J
}

// Sweep samples the DVFS range at the given number of steps
// (inclusive endpoints; steps must be >= 2).
func (m DVFSModel) Sweep(steps int) ([]SweepPoint, error) {
	if steps < 2 {
		return nil, fmt.Errorf("energy: need at least 2 sweep steps, got %d", steps)
	}
	out := make([]SweepPoint, steps)
	for i := range out {
		f := m.MinGHz + (m.MaxGHz-m.MinGHz)*float64(i)/float64(steps-1)
		out[i] = SweepPoint{
			GHz:        f,
			Watts:      m.PowerAt(f),
			GElems:     m.RateAt(f),
			Efficiency: m.EfficiencyAt(f),
		}
	}
	return out, nil
}
