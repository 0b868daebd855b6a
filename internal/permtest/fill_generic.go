//go:build !amd64 || purego

package permtest

// fillAVX512 and flipAVX512 are never reached in builds without the
// assembly: contingency.HasAVX512 is constant false there.

func fillAVX512(dst *uint64, blocks int, start uint64, m *[9]uint64, tail uint64) (weight int) {
	panic("permtest: no assembly in this build")
}

func flipAVX512(dst *uint64, n int, start uint64, leave uint64, d int) (left int, at uint64) {
	panic("permtest: no assembly in this build")
}
