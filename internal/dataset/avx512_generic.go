//go:build !amd64 || purego

package dataset

// hasAVX512 is false in builds without the assembly (other
// architectures, or -tags purego): every caller takes the portable body,
// so the stubs below are never called.
const hasAVX512 = false

func packBlocksAVX512(dst, src *byte, blocks int) (clean bool) { return noAssembly() }

func rawCodesAVX512(row, tail *byte, steps int, want uint32) (clean bool) { return noAssembly() }

func transposeTileAVX512(dst *byte, stride int, src *byte, pitch, quads int, tile *[rawTile * rawTile]byte) {
	noAssembly()
}

func orGenotypesAVX512(dst, src *byte, steps int, sh uint64) { noAssembly() }

// noAssembly is unreachable: every call of a stub is behind hasAVX512.
func noAssembly() bool { panic("dataset: no assembly in this build") }
