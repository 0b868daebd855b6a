//go:build amd64 && !purego

package bitvec

// hasAVX512 is probed once, when the package initialises.
var hasAVX512 = cpuHasAVX512VPOPCNTDQ()

func cpuHasAVX512VPOPCNTDQ() bool
