package bitvec

import "math/bits"

// This file holds the fused word-parallel kernels used by the frequency
// table builders. They correspond to the instruction sequences in the
// paper's Figure 1 and Algorithms 1-2 (AND / NOR / POPCNT chains).
//
// Scalar kernels process one 64-bit word per iteration. The lane kernel
// processes eight words per iteration with independent accumulators,
// emulating the paper's AVX-512 (8 lanes ~ 512 bit) variant: the
// compiler can schedule the independent lane operations in parallel,
// which is the same ILP exposure SIMD gives. The order-3 search's own
// vector kernel is the triple lanes pass, contingency.LaneKernel.

// PopCountAnd3 returns popcount(x & y & z). This is the frequency-table
// cell kernel once the phenotype has been factored out of the dataset
// (approaches V2+).
func PopCountAnd3(x, y, z []uint64) int {
	if len(z) == 0 {
		return 0
	}
	_ = x[len(z)-1]
	_ = y[len(z)-1]
	c := 0
	for i := range z {
		c += bits.OnesCount64(x[i] & y[i] & z[i])
	}
	return c
}

// Nor writes ^(x|y) into dst without tail masking. Callers must mask or
// correct for tail bits themselves.
func Nor(dst, x, y []uint64) {
	if len(dst) == 0 {
		return
	}
	_ = x[len(dst)-1]
	_ = y[len(dst)-1]
	for i := range dst {
		dst[i] = ^(x[i] | y[i])
	}
}

// PopCountAnd3Lanes8 is PopCountAnd3 with 8 accumulator lanes
// (the 512-bit analogue): the scalar AND3+POPCNT rate the fused
// kernel's roof fraction is measured against.
func PopCountAnd3Lanes8(x, y, z []uint64) int {
	n := len(z)
	if n == 0 {
		return 0
	}
	_ = x[n-1]
	_ = y[n-1]
	var c0, c1, c2, c3, c4, c5, c6, c7 int
	i := 0
	for ; i+8 <= n; i += 8 {
		c0 += bits.OnesCount64(x[i] & y[i] & z[i])
		c1 += bits.OnesCount64(x[i+1] & y[i+1] & z[i+1])
		c2 += bits.OnesCount64(x[i+2] & y[i+2] & z[i+2])
		c3 += bits.OnesCount64(x[i+3] & y[i+3] & z[i+3])
		c4 += bits.OnesCount64(x[i+4] & y[i+4] & z[i+4])
		c5 += bits.OnesCount64(x[i+5] & y[i+5] & z[i+5])
		c6 += bits.OnesCount64(x[i+6] & y[i+6] & z[i+6])
		c7 += bits.OnesCount64(x[i+7] & y[i+7] & z[i+7])
	}
	for ; i < n; i++ {
		c0 += bits.OnesCount64(x[i] & y[i] & z[i])
	}
	return c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7
}
