//go:build amd64 && !purego

package permtest

// fillAVX512 is the vector body of casePlane's fill: it writes 8·blocks
// words at dst from the generator's states start+weyl, start+2·weyl, …,
// eight digits a word under the masks m, ANDs the last word with tail
// and returns the weight of all of them. blocks >= 1. Callers gate it on
// contingency.HasAVX512.
//
//go:noescape
func fillAVX512(dst *uint64, blocks int, start uint64, m *[9]uint64, tail uint64) (weight int)
