//go:build !amd64 || purego

package permtest

// fillAVX512 is never reached in builds without the assembly:
// contingency.HasAVX512 is constant false there.
func fillAVX512(dst *uint64, blocks int, start uint64, m *[9]uint64, tail uint64) (weight int) {
	panic("permtest: no assembly in this build")
}
