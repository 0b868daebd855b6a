package engine

import "fmt"

// Subset is the index-remap layer of the screened search: it gathers
// the named SNPs' rows of the packed sections into a compact dataset (no
// Matrix is decoded) and wraps it in a fresh Searcher, so every
// approach — including the fused V3F/V4F hot loops — runs unchanged over
// survivor positions 0..len(cols)-1 with its zero-alloc steady state
// intact. Candidates come back in subset positions; callers translate
// through cols (which must be strictly increasing, so position order is
// SNP order and tie-breaks agree with an unscreened run).
func (s *Searcher) Subset(cols []int) (*Searcher, error) {
	m := s.st.SNPs()
	if len(cols) < 3 {
		return nil, fmt.Errorf("engine: subset needs at least 3 SNPs, have %d", len(cols))
	}
	for p, c := range cols {
		if c < 0 || c >= m {
			return nil, fmt.Errorf("engine: subset SNP %d out of range [0,%d)", c, m)
		}
		if p > 0 && cols[p-1] >= c {
			return nil, fmt.Errorf("engine: subset indices must be strictly increasing (%d after %d)", c, cols[p-1])
		}
	}
	return NewPacked(s.st.Packed().Select(cols))
}
