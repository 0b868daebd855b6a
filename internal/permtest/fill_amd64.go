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

// flipAVX512 is the vector body of casePlane's flips: it draws positions
// of [0, n) eight at a time from the counter at start, exactly as
// rng.intn would one at a time, and flips those whose bit is leave until
// d > 0 of them are flipped (left = 0), or stops before the first draw
// intn would have to test for rejection (left = the flips still to make,
// at = the counter before that draw). n < 2^32. Callers gate it on
// contingency.HasAVX512.
//
//go:noescape
func flipAVX512(dst *uint64, n int, start uint64, leave uint64, d int) (left int, at uint64)
