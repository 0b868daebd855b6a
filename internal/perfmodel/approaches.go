package perfmodel

import (
	"fmt"

	"trigene/internal/device"
)

// This file models the four CPU approaches individually (Figure 2a's
// characterization needs V1-V3, not just the best V4) and defines the
// per-approach operation/byte accounting shared with the roofline
// model.
//
// Counting convention (paper, Section IV): per 32-bit word of samples,
// the naive approach executes 27 x 6 = 162 instructions and streams 10
// words (nine genotype planes and the phenotype); the split approaches
// execute 3 NOR + 27 x (AND + POPCNT) = 57 instructions (plus table
// updates, which the paper folds away) and stream 6 words.

// ApproachCost describes one approach's arithmetic-intensity inputs.
type ApproachCost struct {
	OpsPerWord   float64 // instructions per 32-bit sample word
	BytesPerWord float64 // streamed bytes per 32-bit sample word
}

// AI returns the arithmetic intensity in intops/byte.
func (a ApproachCost) AI() float64 { return a.OpsPerWord / a.BytesPerWord }

// OpsPerElement converts the per-word count to per-element (32 samples
// per word).
func (a ApproachCost) OpsPerElement() float64 { return a.OpsPerWord / 32 }

// CostOf returns the paper's op/byte accounting for approach 1..6
// (V3 and V4 move the same data and execute the same ops as V2; only
// where the bytes are served from changes). The fused approaches
// (5 = V3F, 6 = V4F) cache the nine (y, z) pair-AND planes across the
// ii0 run: per combination word they execute 1 NOR + 27 AND + 27
// POPCNT = 55 ops and touch 11 words (2 stored x planes + 9 cached
// pair planes, all L1-resident by construction) — a lower arithmetic
// intensity that still sits on the compute ceiling because the bytes
// come off the L1 slope. The amortized pair-plane build (2 NOR + 9 AND
// per BS-deep ii0 run) is folded away like the paper folds table
// updates.
func CostOf(approach int) (ApproachCost, error) {
	switch approach {
	case 1:
		return ApproachCost{OpsPerWord: 162, BytesPerWord: 40}, nil
	case 2, 3, 4:
		return ApproachCost{OpsPerWord: 57, BytesPerWord: 24}, nil
	case 5, 6:
		return ApproachCost{OpsPerWord: 55, BytesPerWord: 44}, nil
	default:
		return ApproachCost{}, fmt.Errorf("perfmodel: unknown approach %d", approach)
	}
}

// ApproachName maps the numeric approach (1..6) to its report name:
// "V1".."V4" for the paper's four pipelines, "V3F"/"V4F" for the fused
// variants.
func ApproachName(approach int) string {
	switch approach {
	case 5:
		return "V3F"
	case 6:
		return "V4F"
	default:
		return fmt.Sprintf("V%d", approach)
	}
}

// Scalar-pipeline element rates (64-bit words, three scalar ports).
const (
	naiveScalarOpsPerWord = 162.0 // per 64-bit word: same instruction count, 64 samples
	splitScalarOpsPerWord = 93.0  // 3 NOR + 36 AND + 27 POPCNT + 27 ADD
	fusedScalarOpsPerWord = 82.0  // 1 NOR + 27 AND + 27 POPCNT + 27 ADD (pair planes cached)
	v2StreamStall         = 0.85  // L3-latency stall factor while streaming (no tiling)
)

// CPUApproachGElemPerSec returns the modeled whole-device element
// throughput (Giga elements/s) of approach 1..6 on a CPU, at the given
// workload. avx512 only affects the vector approaches 4 and 6 (V1-V3
// and the fused scalar V3F are scalar in the paper's progression).
func CPUApproachGElemPerSec(c device.CPU, approach int, avx512 bool, snps, samples int) (float64, error) {
	eff := SNPEfficiency(snps) * CPUSampleEfficiency(samples)
	cores := float64(c.TotalCores())
	l3Total := c.L3GBs * float64(c.Sockets) // GB/s across sockets
	switch approach {
	case 1:
		// Scalar, streaming three planes + phenotype: bound by the
		// slower cache levels (the paper's "scalar L3 roof").
		compute := 64 * cpuScalarIPC / naiveScalarOpsPerWord * c.BaseGHz * cores
		mem := l3Total / (80.0 / 64) // 10 x 8-byte loads per 64 samples
		return minf(compute, mem) * eff, nil
	case 2:
		// Scalar split kernel, still streaming (lower AI, same roof).
		compute := 64 * cpuScalarIPC / splitScalarOpsPerWord * c.BaseGHz * cores
		mem := l3Total / (48.0 / 64) // 6 x 8-byte loads per 64 samples
		return minf(compute, mem) * v2StreamStall * eff, nil
	case 3:
		// Blocking serves the block from L1: pure scalar compute bound.
		compute := 64 * cpuScalarIPC / splitScalarOpsPerWord * c.BaseGHz * cores
		return compute * eff, nil
	case 4:
		return CPUOverallGElemPerSec(c, avx512, snps, samples), nil
	case 5:
		// Fused blocked scalar kernel: still L1-served and compute
		// bound, with the pair-AND work hoisted out of the inner loop.
		compute := 64 * cpuScalarIPC / fusedScalarOpsPerWord * c.BaseGHz * cores
		return compute * eff, nil
	case 6:
		return CPUFusedOverallGElemPerSec(c, avx512, snps, samples), nil
	default:
		return 0, fmt.Errorf("perfmodel: unknown approach %d", approach)
	}
}

// GPUCost returns the op/byte accounting of the GPU split kernels
// (66 ALU + 27 POPCNT ops per 32-sample word over six streamed words),
// the GPU-side analogue of CostOf for roofline capping.
func GPUCost() ApproachCost {
	return ApproachCost{OpsPerWord: gpuALUPerWord + gpuPopPerWord, BytesPerWord: 24}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
