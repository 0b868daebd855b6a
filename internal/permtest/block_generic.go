//go:build !amd64 || purego

package permtest

// The vector bodies are never reached in builds without the assembly:
// contingency.HasAVX512 is constant false there.

func transposeAVX512(rows *uint64, stride int, slab *uint64, pstride, words int) {
	panic("permtest: no assembly in this build")
}

func countAVX512(ctr, rows *uint64, samples *int32, r, groups, w, levels int) {
	panic("permtest: no assembly in this build")
}

func extractAVX512(cases, ctrl *int32, gs int, ctr *uint64, levels, w, total int) {
	panic("permtest: no assembly in this build")
}
