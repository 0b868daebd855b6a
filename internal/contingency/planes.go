package contingency

import "math/bits"

// PlaneBatch is how many resident planes CountPlanes counts one
// streamed plane against: one vector accumulator each, with registers
// left for the streamed vector and the reduction.
const PlaneBatch = 8

// CountPlanes sets out[b] to the popcount of combo AND plane b for the
// PlaneBatch planes laid len(combo) words apart in planes. It is the
// permutation test's counting primitive: combo is one genotype-
// combination plane of a candidate, the planes are case planes of
// relabeled phenotypes, and each combo word is loaded once for all of
// them. Nothing is derived here; the caller takes controls as the
// cell's total minus the cases.
func CountPlanes(out *[PlaneBatch]int32, combo, planes []uint64) {
	countPlanes(out, combo, planes, hasAVX512)
}

// countPlanes counts with the chosen body. Like the pair kernel's, the
// vector body takes every non-empty plane, ragged or shorter than a
// vector.
func countPlanes(out *[PlaneBatch]int32, combo, planes []uint64, vector bool) {
	n := len(combo)
	planes = planes[:PlaneBatch*n]
	if vector && n > 0 {
		countPlanesAVX512(out, &combo[0], &planes[0], n)
		return
	}
	countPlanesGo(out, combo, planes)
}

// countPlanesGo is the pure-Go body of CountPlanes and its oracle.
func countPlanesGo(out *[PlaneBatch]int32, combo, planes []uint64) {
	n := len(combo)
	p0, p1, p2, p3 := planes[:n], planes[n:2*n], planes[2*n:3*n], planes[3*n:4*n]
	p4, p5, p6, p7 := planes[4*n:5*n], planes[5*n:6*n], planes[6*n:7*n], planes[7*n:8*n]
	var c0, c1, c2, c3, c4, c5, c6, c7 int
	for w, v := range combo {
		c0 += bits.OnesCount64(v & p0[w])
		c1 += bits.OnesCount64(v & p1[w])
		c2 += bits.OnesCount64(v & p2[w])
		c3 += bits.OnesCount64(v & p3[w])
		c4 += bits.OnesCount64(v & p4[w])
		c5 += bits.OnesCount64(v & p5[w])
		c6 += bits.OnesCount64(v & p6[w])
		c7 += bits.OnesCount64(v & p7[w])
	}
	*out = [PlaneBatch]int32{int32(c0), int32(c1), int32(c2), int32(c3), int32(c4), int32(c5), int32(c6), int32(c7)}
}
