//go:build !amd64 || purego

package dataset

// packVector is false in builds without the assembly (other
// architectures, or -tags purego): every pack takes the SWAR body.
const packVector = false

func packBlocksAVX512(dst, src *byte, blocks int) (clean bool) {
	panic("dataset: no assembly in this build")
}
