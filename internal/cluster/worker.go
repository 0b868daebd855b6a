package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"trigene"
	"trigene/internal/join"
	"trigene/internal/obs"
)

// Worker executes leased tiles against one coordinator: it acquires a
// grant of tiles, fetches (and caches) the job's dataset as a Session,
// runs each tile as an ordinary sharded Session.Search, heartbeats the
// leases while computing, and posts the results back. One Worker runs
// one tile at a time — the search itself is internally parallel — so a
// machine contributes capacity by running one Worker, not many.
//
// Run is a pipeline of four goroutines, so the executor goes from one
// tile's kernel to the next without waiting on the coordinator:
//
//	leaser     keeps one grant ahead of the executor (the request for
//	           the next is parked at the coordinator while this one runs)
//	executor   runs the granted tiles, one after another
//	completer  posts every result finished while its previous request
//	           was in flight as one done request, and retries a request
//	           that got no answer while the leases are still held
//	heartbeat  renews every lease held — prefetched, running, finished
//	           and not yet answered for — in one request per beat
type Worker struct {
	// Client connects to the coordinator.
	Client *Client
	// ID names the worker in coordinator logs (default "host:pid").
	ID string
	// Capacity is the worker's advertised relative capability (an
	// operator-assigned weight: cores, machine class, ...; default 1).
	// The coordinator weighs grants by it until this worker's
	// measured throughput — reported on every lease request and
	// heartbeat — takes over.
	Capacity float64
	// Poll is the idle wait between lease attempts when the
	// coordinator has no work or is unreachable (default 500ms): how
	// long a lease request stays parked at the coordinator, the sleep
	// between requests against one that does not park them, and the
	// ceiling of the completer's retry backoff.
	Poll time.Duration
	// CacheEntries bounds the in-memory LRU of per-dataset Sessions
	// (default 4). Each entry holds a dataset's decoded encodings, so
	// the bound is the worker's memory ceiling across job grants.
	CacheEntries int
	// CacheDir, when set, persists fetched datasets as
	// <contentHash>.tpack files there and checks it before asking the
	// coordinator, so a restarted worker (or several workers sharing a
	// disk) skips both the fetch and the re-encode.
	CacheDir string
	// Logger receives worker events as structured records; every line
	// carries the worker ID, and tile-level lines carry the job ID,
	// tile index and lease token (default: discard).
	Logger *slog.Logger

	// rate is the EWMA of measured tiles/sec, stored as float64 bits
	// (the leaser and heartbeat goroutines read it while the executor
	// writes).
	rate atomic.Uint64

	// Drain support: draining is set once by Drain, drainCh (built
	// lazily under drainMu) wakes an idle executor immediately, and
	// idOnce makes the default ID computable from any goroutine.
	draining  atomic.Bool
	drainOnce sync.Once
	drainMu   sync.Mutex
	drainCh   chan struct{}
	idOnce    sync.Once

	// logOnce/log cache the worker-tagged logger built from Logger.
	logOnce sync.Once
	log     *slog.Logger

	// sessions caches Sessions by dataset content hash so a worker
	// decodes each dataset once, not once per tile. The key is the
	// grant's DatasetSHA256 (the store content hash), never the job ID:
	// job IDs restart from j1 with the coordinator, and a long-lived
	// worker must not execute a new job against a stale cached dataset
	// (identical datasets across jobs dedupe for free instead).
	sessions sessionCache

	// wm holds the metric hooks installed by Instrument (zero value:
	// no-ops); reg is the registry handed to each tile's Search.
	wm  workerMetrics
	reg *obs.Registry
}

// tilesPerSec returns the current measured-throughput report.
func (w *Worker) tilesPerSec() float64 { return math.Float64frombits(w.rate.Load()) }

// observe folds one tile's wall time into the throughput EWMA.
func (w *Worker) observe(d time.Duration) {
	secs := d.Seconds()
	if secs <= 0 {
		return
	}
	inst := 1 / secs
	cur := w.tilesPerSec()
	next := inst
	if cur > 0 {
		const alpha = 0.3
		next = alpha*inst + (1-alpha)*cur
	}
	w.rate.Store(math.Float64bits(next))
}

// sessionCache is a bounded LRU of per-dataset Sessions: keys is
// recency-ordered (least recent first), and evicted sessions are
// Closed so pack-mapped ones release their mappings.
type sessionCache struct {
	cap  int
	keys []string
	vals map[string]*trigene.Session
}

const defaultSessionCacheCap = 4

func (sc *sessionCache) get(id string) (*trigene.Session, bool) {
	s, ok := sc.vals[id]
	if ok {
		sc.touch(id)
	}
	return s, ok
}

// touch moves id to the most-recent end.
func (sc *sessionCache) touch(id string) {
	for i, k := range sc.keys {
		if k == id {
			sc.keys = append(append(sc.keys[:i:i], sc.keys[i+1:]...), id)
			return
		}
	}
}

func (sc *sessionCache) put(id string, s *trigene.Session) {
	if sc.vals == nil {
		sc.vals = make(map[string]*trigene.Session)
	}
	if sc.cap <= 0 {
		sc.cap = defaultSessionCacheCap
	}
	if _, ok := sc.vals[id]; ok {
		sc.vals[id] = s
		sc.touch(id)
		return
	}
	for len(sc.keys) >= sc.cap {
		victim := sc.keys[0]
		sc.vals[victim].Close()
		delete(sc.vals, victim)
		sc.keys = sc.keys[1:]
	}
	sc.keys = append(sc.keys, id)
	sc.vals[id] = s
}

// ensureID fills the default worker identity ("host:pid") exactly
// once; Run and Drain both need it, from different goroutines.
func (w *Worker) ensureID() {
	w.idOnce.Do(func() {
		if w.ID == "" {
			host, _ := os.Hostname()
			w.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
	})
}

// logger returns the worker's structured logger, tagged once with the
// worker ID (discard when Logger is unset). Safe from any goroutine.
func (w *Worker) logger() *slog.Logger {
	w.logOnce.Do(func() {
		w.ensureID()
		l := w.Logger
		if l == nil {
			l = discardLogger()
		}
		w.log = l.With("worker", w.ID)
	})
	return w.log
}

// drainSignal returns the channel Drain closes, creating it on first
// use so Drain may be called before or after Run starts.
func (w *Worker) drainSignal() chan struct{} {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	if w.drainCh == nil {
		w.drainCh = make(chan struct{})
	}
	return w.drainCh
}

// Drain asks the worker to leave the fleet cleanly: it finishes the
// tile it is executing, posts every finished result (completions still
// count), then deregisters from the coordinator — which releases the
// leases still charged to it, the unstarted tiles of its grants, for
// immediate re-issue — and Run returns nil. The drain is announced to
// the coordinator right away so no further leases are granted
// meanwhile. Safe to call from a signal handler goroutine; subsequent
// calls are no-ops.
func (w *Worker) Drain(ctx context.Context) {
	w.drainOnce.Do(func() {
		w.ensureID()
		// Announce before tripping the flag: Run leaves (deregisters) as
		// soon as it observes the flag, and a drain announcement landing
		// after the leave would resurrect the worker in the registry.
		if w.Client != nil {
			if err := w.Client.Drain(ctx, w.ID); err != nil && ctx.Err() == nil {
				w.logger().Warn("announcing drain failed", "error", err)
			}
		}
		w.draining.Store(true)
		w.wm.draining.Set(1)
		close(w.drainSignal())
	})
}

// Draining reports whether Drain has been called: the worker is
// finishing held leases and taking no new ones. Health endpoints use
// it to flip readiness before the process exits.
func (w *Worker) Draining() bool { return w.draining.Load() }

// Run leases and executes tiles until ctx is cancelled (returned as
// ctx's error) or the worker is drained (Run returns nil after
// deregistering). A Worker must not be shared across goroutines; run
// several Workers for concurrent tiles.
func (w *Worker) Run(ctx context.Context) error {
	w.ensureID()
	if w.Poll <= 0 {
		w.Poll = 500 * time.Millisecond
	}
	if w.Capacity <= 0 {
		w.Capacity = 1
	}
	if w.CacheEntries > 0 {
		w.sessions.cap = w.CacheEntries
	}
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	leaseCtx, stopLeasing := context.WithCancel(ctx)
	defer stopLeasing()
	p := &pipeline{
		w:        w,
		grants:   make(chan LeaseGrant),
		held:     make(map[string]bool),
		posted:   make(chan struct{}, 1),
		beat:     make(chan struct{}, 1),
		flushed:  make(chan struct{}),
		interval: time.Second,
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); p.lease(leaseCtx) }()
	go func() { defer wg.Done(); p.heartbeat(ctx) }()
	go func() { defer wg.Done(); defer close(p.flushed); p.complete(ctx) }()

	err := p.execute(ctx)
	if err == nil {
		// Drained. Stop asking for work, let the completer post what is
		// finished (one attempt each), then hand back whatever the
		// coordinator still charges to this worker — the rest of the
		// running grant, the prefetched one — and leave the fleet.
		stopLeasing()
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		poke(p.posted)
		select {
		case <-p.flushed:
		case <-ctx.Done():
		}
		if released, lerr := w.Client.Leave(ctx, w.ID); lerr != nil {
			if ctx.Err() == nil {
				w.logger().Warn("drain: leave failed; leases will expire by TTL", "error", lerr)
			}
		} else if released > 0 {
			w.logger().Info("drained; abandoned leases released for re-issue", "released", released)
		} else {
			w.logger().Info("drained cleanly")
		}
	}
	stop()
	wg.Wait()
	return err
}

// pipeline is the state one Run's goroutines share.
type pipeline struct {
	w *Worker
	// grants hands grants from the leaser to the executor. Unbuffered:
	// the leaser blocks on it holding the next grant, which is the one
	// grant of prefetch.
	grants chan LeaseGrant

	mu sync.Mutex
	// held is every lease to renew — granted and not yet answered for —
	// mapped to whether a renewal found it lost; running and its cancel
	// name the tile computing now, so losing that lease stops the search.
	held    map[string]bool
	running string
	cancel  context.CancelFunc
	// interval is the heartbeat period (TTL/3 of the latest grant), and
	// batch whether that grant's coordinator takes batched requests.
	interval time.Duration
	batch    bool
	// queue is the finished results not yet posted; closed says no more
	// will come (drain), so the completer exits once it is empty.
	queue  []TileResult
	closed bool

	posted  chan struct{} // poked when queue or closed changed
	beat    chan struct{} // poked to renew now rather than at the next beat
	flushed chan struct{} // closed when the completer has exited
}

// poke wakes the goroutine that sleeps on ch, if it does.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pause sleeps d, or until ctx ends.
func pause(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// lease is the leaser: it asks for the next grant as soon as the
// executor has taken the previous one, so a grant is always waiting
// when the executor runs out. The request parks at the coordinator for
// up to Poll; the rest of the interval is slept here when it comes back
// empty sooner — a coordinator that does not park, or one that is
// unreachable (restart, network blip: retry rather than die).
func (p *pipeline) lease(ctx context.Context) {
	w := p.w
	for ctx.Err() == nil {
		asked := time.Now()
		grant, ok, err := w.Client.lease(ctx, LeaseRequest{
			Worker:      w.ID,
			Capacity:    w.Capacity,
			TilesPerSec: w.tilesPerSec(),
			WaitMillis:  w.Poll.Milliseconds(),
		})
		if err != nil && ctx.Err() == nil {
			w.logger().Warn("lease request failed; retrying", "error", err, "retryIn", w.Poll)
		}
		if err != nil || !ok {
			pause(ctx, w.Poll-time.Since(asked))
			continue
		}
		if len(grant.Granted) == 0 {
			grant.Granted = []TileGrant{{Token: grant.Token, Tile: grant.Tile}}
		}
		p.mu.Lock()
		for _, tg := range grant.Granted {
			p.held[tg.Token] = false
		}
		interval := time.Duration(grant.TTLMillis) * time.Millisecond / 3
		rearm := interval > 0 && interval != p.interval
		if rearm {
			p.interval = interval
		}
		p.batch = grant.Batch
		p.mu.Unlock()
		if rearm {
			// The heartbeat sleeps out the interval it last read; a beat
			// now makes it pick up this one.
			poke(p.beat)
		}
		select {
		case p.grants <- grant:
		case <-ctx.Done():
		}
	}
}

// heartbeat renews every held lease each interval, and at once when
// poked. A token whose renewal comes back lost is marked so — the
// executor skips its tile — and if it belongs to the tile running now, that search is cancelled so the worker stops
// burning cycles on a tile it no longer owns. Transport errors are
// tolerated (only an authoritative "lost" loses a lease).
func (p *pipeline) heartbeat(ctx context.Context) {
	w := p.w
	for {
		p.mu.Lock()
		interval := p.interval
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-p.beat:
		case <-time.After(interval):
		}
		p.mu.Lock()
		tokens := make([]string, 0, len(p.held))
		for tok, lost := range p.held {
			if !lost {
				tokens = append(tokens, tok)
			}
		}
		step := len(tokens)
		if !p.batch {
			step = 1
		}
		p.mu.Unlock()
		for ; len(tokens) > 0 && ctx.Err() == nil; tokens = tokens[step:] {
			step = min(step, len(tokens))
			lost, err := w.Client.renew(ctx, tokens[:step], RenewRequest{Worker: w.ID, TilesPerSec: w.tilesPerSec()})
			if err != nil && ctx.Err() == nil {
				w.logger().Warn("renew failed; will retry", "tokens", step, "error", err)
			}
			for _, tok := range lost {
				w.wm.leasesLost.Inc()
				p.mu.Lock()
				if _, ok := p.held[tok]; ok {
					p.held[tok] = true
				}
				if p.running == tok {
					p.cancel()
				}
				p.mu.Unlock()
			}
		}
	}
}

// lost reports whether a renewal found the lease gone.
func (p *pipeline) lost(token string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held[token]
}

// release stops renewing the leases of tiles the worker is through
// with: answered for, or given up.
func (p *pipeline) release(tiles ...TileGrant) {
	p.mu.Lock()
	for _, tg := range tiles {
		delete(p.held, tg.Token)
	}
	p.mu.Unlock()
}

// execute is the executor: it runs grants as the leaser hands them over
// until ctx ends (returning its error) or the worker drains (nil). Time
// spent here without a grant is the pipeline's idle time.
func (p *pipeline) execute(ctx context.Context) error {
	w := p.w
	for {
		waiting := time.Now()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.drainSignal():
			return nil
		case grant := <-p.grants:
			w.wm.idleSeconds.Observe(time.Since(waiting).Seconds())
			p.run(ctx, grant)
		}
	}
}

// run executes one grant's tiles in order, queueing each result for the
// completer. Every tile keeps its own lease token, renewed by the
// heartbeat until its result is answered for, so exactly-once
// accounting is per tile however the results are batched.
func (p *pipeline) run(ctx context.Context, grant LeaseGrant) {
	w := p.w
	tiles := grant.Granted
	sess, err := w.session(ctx, grant)
	if err != nil {
		// Dataset load failures are treated as transient (coordinator
		// restarting, job finished meanwhile): abandon the leases and
		// let expiry re-issue the tiles — MaxAttempts brakes a
		// persistent cause.
		if ctx.Err() == nil {
			w.logger().Warn("loading dataset failed; abandoning leases", "job", grant.Job, "error", err)
		}
		p.release(tiles...)
		return
	}
	opts, err := grant.Spec.Options()
	if err != nil {
		// The coordinator validated the spec at submit; a rebuild error
		// here is deterministic (version skew), so fail the job loudly.
		w.logger().Error("rebuilding spec failed; failing the job",
			"job", grant.Job, "tile", tiles[0].Tile, "token", tiles[0].Token, "error", err)
		w.failJob(ctx, tiles[0].Token, fmt.Sprintf("rebuilding spec: %v", err))
		p.release(tiles...)
		return
	}
	for i, tg := range tiles {
		if ctx.Err() != nil || w.draining.Load() {
			// Shutdown: the remaining leases expire and re-issue. Drain:
			// leave hands them back.
			return
		}
		if p.lost(tg.Token) {
			w.logger().Info("lease lost before start; skipping tile",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
			p.release(tg)
			continue
		}
		res, err := p.runTile(ctx, grant, tg, sess, opts)
		switch {
		case err == nil:
			p.mu.Lock()
			p.queue = append(p.queue, res)
			p.mu.Unlock()
			poke(p.posted)
		case p.lost(tg.Token):
			w.logger().Info("lease lost mid-tile; abandoning it",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
			p.release(tg)
		case ctx.Err() != nil:
			return
		default:
			// A deterministic execution error: retrying elsewhere cannot
			// help, so fail the job loudly (and drop the rest of the grant
			// — its leases die with the job).
			w.logger().Error("tile failed; failing the job",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token, "error", err)
			w.failJob(ctx, tg.Token, err.Error())
			p.release(tiles[i:]...)
			return
		}
	}
}

// runTile computes one tile and returns its result in wire form. What a
// tile is follows from its grant (grantKind): the kind runs it and names
// the field its payload travels in.
func (p *pipeline) runTile(ctx context.Context, grant LeaseGrant, tg TileGrant, sess *trigene.Session, opts []trigene.Option) (TileResult, error) {
	w := p.w
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p.mu.Lock()
	p.running, p.cancel = tg.Token, cancel
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.running, p.cancel = "", nil
		p.mu.Unlock()
	}()

	shard := grant.shard(tg.Tile)
	w.logger().Info("executing tile",
		"job", grant.Job, "tile", tg.Tile, "shard", shard.Index, "shards", shard.Count, "stage", grant.Stage, "token", tg.Token)
	res := TileResult{Token: tg.Token}
	kind := grantKind(&grant)
	start := time.Now()
	out, err := func() (out any, err error) {
		// A tile that panics fails its job, as a deterministic error
		// does, and the worker lives on. The engine's, the encoders' and
		// the permutation test's goroutines raise their panics again
		// here, with the stack they were raised on.
		defer func() {
			if v := recover(); v != nil {
				stack := debug.Stack()
				if p, ok := v.(*join.Panic); ok {
					v, stack = p.Value, p.Stack
				}
				w.logger().Error("tile panicked", "job", grant.Job, "tile", tg.Tile, "panic", v, "stack", string(stack))
				err = fmt.Errorf("job %s tile %d panicked: %v", grant.Job, tg.Tile, v)
			}
		}()
		return kind.run(ctx, tileRun{w: w, sess: sess, spec: &grant.Spec, opts: opts, shard: shard, binary: grant.BinaryReports})
	}()
	if err != nil {
		return res, err
	}
	elapsed := time.Since(start)
	w.observe(elapsed)
	w.wm.tiles.Inc()
	w.wm.tileSeconds.Observe(elapsed.Seconds())
	*kind.field(&res), err = json.Marshal(out)
	return res, err
}

// complete is the completer: it posts, as one done request, every
// result that finished while its previous request was in flight — the
// batch sizes itself to however far the executor runs ahead of the
// coordinator — and exits when ctx ends or the queue is closed and
// empty. A request that got no answer (transport failure, 5xx: the
// coordinator restarting or recovering) is retried with backoff for as
// long as its leases are held, so a finished tile is not computed twice
// because its first POST met a restart; a drained worker tries once.
func (p *pipeline) complete(ctx context.Context) {
	w := p.w
	for {
		p.mu.Lock()
		// One result to a coordinator that takes no batches; otherwise
		// all of them, up to half the route's body bound.
		n, size := 0, 0
		for n < len(p.queue) && (n == 0 || (p.batch && size < maxDoneBody/2)) {
			size += payloadSize(&p.queue[n])
			n++
		}
		results := p.queue[:n:n]
		p.queue = p.queue[n:]
		closed := p.closed
		p.mu.Unlock()
		if n == 0 {
			if closed {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-p.posted:
			}
			continue
		}
		for backoff := w.Poll / 16; len(results) > 0 && ctx.Err() == nil; backoff = min(2*backoff, w.Poll) {
			verdicts, err := w.Client.done(ctx, results)
			if err != nil {
				p.mu.Lock()
				giveUp := p.closed
				p.mu.Unlock()
				if ctx.Err() != nil || giveUp {
					return
				}
				w.logger().Warn("posting results failed; retrying",
					"results", len(results), "error", err, "retryIn", backoff)
				pause(ctx, max(backoff, time.Millisecond))
				continue
			}
			for _, v := range verdicts {
				p.release(TileGrant{Token: v.Token})
				switch v.Status {
				case TileAccepted:
				case TileDiscarded:
					w.logger().Info("duplicate result discarded by coordinator", "token", v.Token)
				case TileGone:
					// The job is over or the lease was never the
					// coordinator's: the same is likely true of others
					// held, and a renewal now finds out which.
					w.logger().Info("completed after lease loss; result discarded", "token", v.Token, "reason", v.Error)
					poke(p.beat)
				default:
					w.logger().Warn("result refused by coordinator", "token", v.Token, "error", v.Error)
				}
			}
			results = results[len(verdicts):]
		}
	}
}

// session returns the cached Session for a grant's dataset. On a cache
// miss it tries the on-disk pack cache, then fetches the job's .tpack
// from the coordinator, and verifies the loaded dataset's content hash
// against the grant before trusting it.
func (w *Worker) session(ctx context.Context, grant LeaseGrant) (*trigene.Session, error) {
	if s, ok := w.sessions.get(grant.DatasetSHA256); ok {
		w.wm.datasetLoad("memory")
		return s, nil
	}
	if s := w.sessionFromDisk(grant.DatasetSHA256); s != nil {
		w.wm.datasetLoad("disk")
		w.sessions.put(grant.DatasetSHA256, s)
		return s, nil
	}
	raw, err := w.Client.dataset(ctx, grant.Job)
	if err != nil {
		return nil, err
	}
	w.wm.datasetLoad("fetch")
	s, err := trigene.ReadPack(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if s.DatasetHash() != grant.DatasetSHA256 {
		// The job behind this ID changed under us (coordinator restart
		// between grant and fetch); abandon rather than compute on the
		// wrong data.
		return nil, fmt.Errorf("dataset fingerprint mismatch: fetched %.12s…, lease names %.12s…",
			s.DatasetHash(), grant.DatasetSHA256)
	}
	w.persistPack(grant.DatasetSHA256, raw)
	w.sessions.put(grant.DatasetSHA256, s)
	return s, nil
}

// sessionFromDisk loads <hash>.tpack from the worker's pack cache,
// discarding entries that fail to load or hash to something else.
func (w *Worker) sessionFromDisk(hash string) *trigene.Session {
	if w.CacheDir == "" {
		return nil
	}
	path := filepath.Join(w.CacheDir, hash+".tpack")
	s, err := trigene.OpenPack(path)
	if err != nil {
		return nil
	}
	if s.DatasetHash() != hash {
		s.Close()
		w.logger().Warn("pack cache entry names the wrong dataset; removing", "path", path)
		os.Remove(path)
		return nil
	}
	w.logger().Info("dataset loaded from pack cache", "dataset", hash)
	return s
}

// persistPack writes a verified pack into the pack cache (atomic
// rename so concurrent workers sharing the directory never read a
// torn file). Failures only cost the cache, not the tile.
func (w *Worker) persistPack(hash string, raw []byte) {
	if w.CacheDir == "" {
		return
	}
	if err := os.MkdirAll(w.CacheDir, 0o755); err != nil {
		w.logger().Warn("pack cache write failed", "error", err)
		return
	}
	tmp, err := os.CreateTemp(w.CacheDir, hash+".*.tmp")
	if err != nil {
		w.logger().Warn("pack cache write failed", "error", err)
		return
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(raw)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(w.CacheDir, hash+".tpack"))
	}
	if err != nil {
		w.logger().Warn("pack cache write failed", "error", err)
	}
}

// failJob reports a deterministic failure.
func (w *Worker) failJob(ctx context.Context, token, msg string) {
	if err := w.Client.fail(ctx, token, msg); err != nil && !errors.Is(err, errLeaseLost) && ctx.Err() == nil {
		w.logger().Warn("reporting job failure failed", "token", token, "error", err)
	}
}
