package trigene

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"trigene/internal/dataset"
	"trigene/internal/engine"
	"trigene/internal/obs"
	"trigene/internal/store"
)

// Session is the unit of work a server holds per loaded dataset: it
// validates the dataset once, owns the dataset's encoded-dataset store
// (every bit-plane encoding is built lazily, exactly once, and shared
// by all backends), and is safe for many concurrent Search and
// PermutationTest calls (each call is itself internally parallel).
type Session struct {
	store    *store.Store
	searcher *engine.Searcher
	perm     atomic.Pointer[preparedPerm] // the last permutation test's candidates
}

// NewSession validates the dataset and wraps it in a fresh
// encoded-dataset store. No encoding is built until a search needs it:
// a CPU search materializes just the phenotype-split form, and the naive
// three-plane form is built only for gpusim's V1 kernel.
func NewSession(mx *Matrix) (*Session, error) {
	s, err := engine.New(mx)
	if err != nil {
		return nil, err
	}
	return &Session{store: s.Store(), searcher: s}, nil
}

// OpenPack opens a packed .tpack dataset (see Session.WritePack and the
// epistasis/trigened/datagen pack modes), memory-mapping it where the
// platform allows so the session is ready in milliseconds without
// re-parsing the dataset; the first search builds its encoding from the
// packed sections. Call Close when done with the session.
func OpenPack(path string) (*Session, error) {
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := engine.NewFromStore(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &Session{store: st, searcher: s}, nil
}

// ReadPack decodes a .tpack dataset from a byte stream (the wire form
// cluster workers receive) into a heap-backed session.
func ReadPack(r io.Reader) (*Session, error) {
	st, err := store.ReadPack(r)
	if err != nil {
		return nil, err
	}
	s, err := engine.NewFromStore(st)
	if err != nil {
		return nil, err
	}
	return &Session{store: st, searcher: s}, nil
}

// ReadRAWSession reads a PLINK .raw file (the format ReadRAW parses) into
// a session, the .raw counterpart of ReadPack: the store holds the
// reader's packed genotypes as they are, and the M x N Matrix — four times
// their size — is built only if Matrix is called. Searches, permutation
// tests, reports and DatasetHash equal those of NewSession(ReadRAW(r)).
func ReadRAWSession(r io.Reader) (*Session, error) {
	p, err := dataset.ReadRAWPacked(r)
	if err != nil {
		return nil, err
	}
	s, err := engine.NewPacked(p)
	if err != nil {
		return nil, err
	}
	return &Session{store: s.Store(), searcher: s}, nil
}

// WritePack serializes the session's dataset in the packed .tpack
// format: 2-bit genotypes and 1-bit phenotypes under their content
// hash, no plane encoding. A pack round-trip preserves the dataset hash
// and every search result bit for bit.
func (s *Session) WritePack(w io.Writer) error { return s.store.WritePack(w) }

// DatasetHash returns the hex SHA-256 content hash identifying the
// session's dataset. Identical matrices hash identically regardless of
// the format they were loaded from; caches (the cluster worker's
// session cache, pack caches) key on it.
func (s *Session) DatasetHash() string { return s.store.Hash() }

// PackMapped reports whether the session's packed sections are served
// from a memory-mapped .tpack.
func (s *Session) PackMapped() bool { return s.store.Mapped() }

// Close releases the mmap region of a session opened from a .tpack
// with OpenPack. The session must not be used afterwards. Sessions
// built any other way need no Close; calling it is a no-op.
func (s *Session) Close() error { return s.store.Close() }

// Matrix returns the dataset the session was built from (decoding it
// from the packed sections on sessions read from a .tpack or a .raw).
func (s *Session) Matrix() *Matrix { return s.store.Matrix() }

// SNPs returns the dataset's SNP count M.
func (s *Session) SNPs() int { return s.store.SNPs() }

// Samples returns the dataset's sample count N.
func (s *Session) Samples() int { return s.store.Samples() }

// ClassCounts returns the number of control and case samples.
func (s *Session) ClassCounts() (controls, cases int) { return s.store.ClassCounts() }

// Search runs one exhaustive interaction search. The zero
// configuration searches order 3 on the CPU backend with approach V4F,
// the Bayesian K2 objective and all cores, returning the single best
// candidate; functional options select the order, backend, approach,
// objective, top-K depth, shard and parallelism. Cancellation of ctx
// is observed between work chunks on every backend and returns the
// context error.
func (s *Session) Search(ctx context.Context, opts ...Option) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := newSearchConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.checkSpace(s.SNPs()); err != nil {
		return nil, err
	}
	if cfg.remote != nil {
		return s.searchRemote(ctx, cfg)
	}
	s.store.Instrument(cfg.metrics)
	var tr *obs.Trace
	if cfg.trace {
		tr = obs.NewTrace()
	}
	// The approach's encodings build lazily inside the backend, so the
	// "encode" span is the store's build-time delta across the search,
	// anchored at the search span's start (it nests inside "search").
	var encodeBefore float64
	if cfg.trace {
		encodeBefore = s.store.EncodeSeconds()
	}
	searchStart := tr.Since()
	searchDone := tr.Start("search")
	var rep *Report
	if cfg.screen != nil {
		rep, err = s.searchScreened(ctx, cfg, tr)
	} else {
		rep, err = cfg.backend.search(ctx, s, cfg)
	}
	searchDone()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if d := s.store.EncodeSeconds() - encodeBefore; d > 0 {
			tr.Add("encode", searchStart, time.Duration(d*float64(time.Second)))
		}
		rep.Trace = traceInfo(tr)
	}
	return rep, nil
}

// traceInfo converts a recorded obs.Trace into the Report's exported
// TraceInfo block.
func traceInfo(tr *obs.Trace) *TraceInfo {
	spans := tr.Spans()
	out := &TraceInfo{Spans: make([]TraceSpan, len(spans))}
	for i, sp := range spans {
		out.Spans[i] = TraceSpan{
			Name:       sp.Name,
			StartNs:    sp.Start.Nanoseconds(),
			DurationNs: sp.Duration.Nanoseconds(),
		}
	}
	return out
}

// searchRemote ships a configured search to a WithCluster executor.
func (s *Session) searchRemote(ctx context.Context, cfg *searchConfig) (*Report, error) {
	if cfg.shard != nil {
		return nil, fmt.Errorf("trigene: WithShard does not combine with WithCluster (the cluster partitions the space itself)")
	}
	if cfg.progress != nil {
		return nil, fmt.Errorf("trigene: WithProgress does not cross the wire; poll the cluster job status instead")
	}
	rep, err := cfg.remote.ExecuteSearch(ctx, s.Matrix(), cfg.spec())
	if err != nil {
		return nil, fmt.Errorf("trigene: cluster %s: %w", cfg.remote.Name(), err)
	}
	return rep, nil
}

// PermutationTest estimates the p-value of a candidate combination
// (any order in [2, 7], strictly increasing SNP indices — typically a
// Report's Best.SNPs) by phenotype permutation, on the bit-plane
// kernel. Relevant options: WithPermutations, WithSeed, WithObjective
// (which must match the scan that produced the candidate), WithWorkers
// and WithCluster (which fans the permutation range out over a cluster;
// merged p-values are bit-exact with a local run). Use
// PermutationTestAll to test a whole top-K sharing the permutation
// work.
func (s *Session) PermutationTest(ctx context.Context, snps []int, opts ...Option) (*PermResult, error) {
	res, err := s.PermutationTestAll(ctx, [][]int{snps}, opts...)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
