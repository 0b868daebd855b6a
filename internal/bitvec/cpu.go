package bitvec

// HasAVX512 reports what the module's one start-up probe found: AVX512F
// and AVX512_VPOPCNTDQ with OS-saved opmask and ZMM state, in a build that
// holds the assembly (amd64 without -tags purego). Every AVX-512 body in
// the module — contingency's kernels, score's K2 lanes (the term-table
// and the three-gather loops), permtest's case-plane fill and flips,
// transpose and sample counter, dataset's validate-and-pack pass and its
// .raw reader's decode, tile transpose and assembly — is gated on it and
// uses only those two subsets (contingency's
// TestAssemblyStaysInsideTheProbe).
func HasAVX512() bool { return hasAVX512 }
