//go:build !amd64 || purego

package bitvec

// hasAVX512 is false in builds without the assembly (other
// architectures, or -tags purego).
const hasAVX512 = false
