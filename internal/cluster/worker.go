package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"trigene"
	"trigene/internal/obs"
	"trigene/internal/sched"
	"trigene/internal/store"
)

// Worker executes leased tiles against one coordinator: it acquires a
// lease, fetches (and caches) the job's dataset as a Session, runs the
// tile as an ordinary sharded Session.Search, heartbeats the lease
// while computing, and posts the tile Report back. One Worker runs one
// tile at a time — the search itself is internally parallel — so a
// machine contributes capacity by running one Worker, not many.
type Worker struct {
	// Client connects to the coordinator.
	Client *Client
	// ID names the worker in coordinator logs (default "host:pid").
	ID string
	// Capacity is the worker's advertised relative capability (an
	// operator-assigned weight: cores, machine class, ...; default 1).
	// The coordinator sizes lease batches by it until this worker's
	// measured throughput — reported on every lease request and
	// heartbeat — takes over.
	Capacity float64
	// Poll is the idle wait between lease attempts when the
	// coordinator has no work or is unreachable (default 500ms).
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
	// (the heartbeat goroutine reads it while the search loop writes).
	rate atomic.Uint64

	// Drain support: draining is set once by Drain, drainCh (built
	// lazily under drainMu) wakes an idle Run loop immediately, and
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
// tile batch it is executing (completions still count), then
// deregisters from the coordinator — which releases any lease still
// charged to it for immediate re-issue — and Run returns nil. The
// drain is announced to the coordinator right away so no further
// leases are granted meanwhile. Safe to call from a signal handler
// goroutine; subsequent calls are no-ops.
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
	for {
		if w.draining.Load() {
			// Between batches with nothing in flight: hand back
			// whatever the coordinator still charges to this worker
			// and leave the fleet.
			if released, err := w.Client.Leave(ctx, w.ID); err != nil {
				if ctx.Err() == nil {
					w.logger().Warn("drain: leave failed; leases will expire by TTL", "error", err)
				}
			} else if released > 0 {
				w.logger().Info("drained; abandoned leases released for re-issue", "released", released)
			} else {
				w.logger().Info("drained cleanly")
			}
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, ok, err := w.Client.lease(ctx, LeaseRequest{
			Worker:      w.ID,
			Capacity:    w.Capacity,
			TilesPerSec: w.tilesPerSec(),
		})
		switch {
		case err != nil:
			// Coordinator unreachable (restart, network blip): idle and
			// retry rather than dying.
			if ctx.Err() == nil {
				w.logger().Warn("lease request failed; retrying", "error", err, "retryIn", w.Poll)
			}
			w.idle(ctx)
		case !ok:
			w.idle(ctx)
		default:
			w.execute(ctx, grant)
		}
	}
}

// idle sleeps one poll interval, or until cancellation or a drain
// request (a draining idle worker should leave now, not a poll later).
func (w *Worker) idle(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-w.drainSignal():
	case <-time.After(w.Poll):
	}
}

// execute runs one granted batch of tiles end to end, sequentially.
// Every tile keeps its own lease token: the shared heartbeat renews
// all of them while any tile of the batch is still pending, so tile 3
// stays covered while tiles 1 and 2 compute, and exactly-once
// accounting is per tile exactly as with single grants.
func (w *Worker) execute(ctx context.Context, grant LeaseGrant) {
	tiles := grant.Granted
	if len(tiles) == 0 {
		tiles = []TileGrant{{Token: grant.Token, Tile: grant.Tile}}
	}
	sess, err := w.session(ctx, grant)
	if err != nil {
		// Dataset load failures are treated as transient (coordinator
		// restarting, job finished meanwhile): abandon the leases and
		// let expiry re-issue the tiles — MaxAttempts brakes a
		// persistent cause.
		if ctx.Err() == nil {
			w.logger().Warn("loading dataset failed; abandoning leases", "job", grant.Job, "error", err)
		}
		return
	}
	var opts []trigene.Option
	if grant.Stage != "screen" {
		// Stage-1 grants run ScreenStage1, which takes its own narrow
		// option set; only search grants rebuild the full spec.
		opts, err = grant.Spec.Options()
		if err != nil {
			// The coordinator validated the spec at submit; a rebuild error
			// here is deterministic (version skew), so fail the job loudly.
			w.logger().Error("rebuilding spec failed; failing the job",
				"job", grant.Job, "tile", tiles[0].Tile, "token", tiles[0].Token, "error", err)
			w.failJob(ctx, tiles[0].Token, fmt.Sprintf("rebuilding spec: %v", err))
			return
		}
	}

	hb := w.startHeartbeats(ctx, grant, tiles)
	defer hb.stop()
	for _, tg := range tiles {
		if ctx.Err() != nil {
			// Shutdown: remaining leases expire and re-issue.
			return
		}
		if hb.lost(tg.Token) {
			w.logger().Info("lease lost before start; skipping tile",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
			continue
		}
		ok := false
		switch {
		case grant.Stage == "screen":
			ok = w.executeScreenTile(ctx, hb, grant, tg, sess)
		case grant.Spec.Perm != nil:
			ok = w.executePermTile(ctx, hb, grant, tg, sess, opts)
		default:
			ok = w.executeTile(ctx, hb, grant, tg, sess, opts)
		}
		if !ok {
			return
		}
	}
}

// shardCoords maps a lease-unit index onto the shard the tile's phase
// covers: unscreened jobs shard the whole space (Tile of Tiles), a
// two-phase job's grants shard within their stage.
func shardCoords(grant LeaseGrant, tg TileGrant) (index, count int) {
	if grant.StageCount > 0 {
		return tg.Tile - grant.StageBase, grant.StageCount
	}
	return tg.Tile, grant.Tiles
}

// executeScreenTile runs one stage-1 shard of a screened job — the
// pairwise scan over shard (Tile−StageBase) of StageCount — and posts
// its ScreenScores; the coordinator merges the shards and pins the
// survivor set when the last one lands. Reports false when the whole
// batch should be abandoned.
func (w *Worker) executeScreenTile(ctx context.Context, hb *heartbeats, grant LeaseGrant, tg TileGrant, sess *trigene.Session) bool {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hb.setCurrent(tg.Token, cancel)
	defer hb.clearCurrent()

	index, count := shardCoords(grant, tg)
	opts := []trigene.Option{trigene.WithShard(index, count), trigene.WithMetrics(w.reg)}
	if grant.Spec.Objective != "" {
		opts = append(opts, trigene.WithObjective(grant.Spec.Objective))
	}
	if grant.Spec.Workers != 0 {
		opts = append(opts, trigene.WithWorkers(grant.Spec.Workers))
	}
	seedPairs := 0
	if grant.Spec.Screen != nil {
		seedPairs = grant.Spec.Screen.SeedPairs
	}

	w.logger().Info("executing screen tile",
		"job", grant.Job, "tile", tg.Tile, "shard", index, "shards", count, "token", tg.Token)
	start := time.Now()
	scores, err := sess.ScreenStage1(sctx, seedPairs, opts...)

	switch {
	case err == nil:
		elapsed := time.Since(start)
		w.observe(elapsed)
		w.wm.tiles.Inc()
		w.wm.tileSeconds.Observe(elapsed.Seconds())
		hb.finish(tg.Token)
		accepted, cerr := w.Client.completeScreen(ctx, tg.Token, scores)
		switch {
		case errors.Is(cerr, errLeaseLost):
			w.logger().Info("completed after lease loss; result discarded",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
		case cerr != nil:
			w.logger().Warn("posting screen scores failed",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token, "error", cerr)
		case !accepted:
			w.logger().Info("duplicate result discarded by coordinator",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
		}
	case hb.lost(tg.Token):
		w.logger().Info("lease lost mid-scan; abandoning tile",
			"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
	case ctx.Err() != nil:
		// Shutdown: leave the leases to expire and be re-issued.
	default:
		w.logger().Error("screen tile failed; failing the job",
			"job", grant.Job, "tile", tg.Tile, "token", tg.Token, "error", err)
		w.failJob(ctx, tg.Token, err.Error())
		return false
	}
	return true
}

// executePermTile runs one permutation-range tile of a permutation job:
// the grant's shard of the [0, P) permutation index space, evaluated
// with Session.PermutationSlice and posted back as PermScores. Because
// every permutation keys its relabeling by absolute index, the range
// the shard covers is bit-exact regardless of which worker runs it or how
// the space was cut. Reports false when the whole batch should be
// abandoned (the job was failed deterministically).
func (w *Worker) executePermTile(ctx context.Context, hb *heartbeats, grant LeaseGrant, tg TileGrant, sess *trigene.Session, opts []trigene.Option) bool {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hb.setCurrent(tg.Token, cancel)
	defer hb.clearCurrent()

	index, count := shardCoords(grant, tg)
	src, serr := sched.Permutations(grant.Spec.Perm.PermutationCount(), count).Shard(sched.Shard{Index: index, Count: count})
	if serr != nil {
		// The coordinator sized the space at submit; a shard error here
		// is deterministic, so fail the job loudly.
		w.logger().Error("sharding permutation space failed; failing the job",
			"job", grant.Job, "tile", tg.Tile, "token", tg.Token, "error", serr)
		w.failJob(ctx, tg.Token, fmt.Sprintf("sharding permutation space: %v", serr))
		return false
	}
	b := src.Bounds()
	offset, n := int(b.Lo), int(b.Hi-b.Lo)

	topts := make([]trigene.Option, 0, len(opts)+1)
	topts = append(topts, opts...)
	topts = append(topts, trigene.WithMetrics(w.reg))

	w.logger().Info("executing perm tile",
		"job", grant.Job, "tile", tg.Tile, "offset", offset, "count", n, "token", tg.Token)
	start := time.Now()
	scores, err := sess.PermutationSlice(sctx, grant.Spec.Perm.SNPs, offset, n, topts...)

	switch {
	case err == nil:
		elapsed := time.Since(start)
		w.observe(elapsed)
		w.wm.tiles.Inc()
		w.wm.tileSeconds.Observe(elapsed.Seconds())
		hb.finish(tg.Token)
		accepted, cerr := w.Client.completePerm(ctx, tg.Token, scores)
		switch {
		case errors.Is(cerr, errLeaseLost):
			w.logger().Info("completed after lease loss; result discarded",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
		case cerr != nil:
			w.logger().Warn("posting perm scores failed",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token, "error", cerr)
		case !accepted:
			w.logger().Info("duplicate result discarded by coordinator",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
		}
	case hb.lost(tg.Token):
		w.logger().Info("lease lost mid-test; abandoning tile",
			"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
	case ctx.Err() != nil:
		// Shutdown: leave the leases to expire and be re-issued.
	default:
		w.logger().Error("perm tile failed; failing the job",
			"job", grant.Job, "tile", tg.Tile, "token", tg.Token, "error", err)
		w.failJob(ctx, tg.Token, err.Error())
		return false
	}
	return true
}

// executeTile runs one tile of a batch; it reports false when the
// whole batch should be abandoned (the job was failed deterministically).
func (w *Worker) executeTile(ctx context.Context, hb *heartbeats, grant LeaseGrant, tg TileGrant, sess *trigene.Session, opts []trigene.Option) bool {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hb.setCurrent(tg.Token, cancel)
	defer hb.clearCurrent()

	index, count := shardCoords(grant, tg)
	topts := make([]trigene.Option, 0, len(opts)+2)
	topts = append(topts, opts...)
	topts = append(topts, trigene.WithShard(index, count))
	topts = append(topts, trigene.WithMetrics(w.reg))

	w.logger().Info("executing tile",
		"job", grant.Job, "tile", tg.Tile, "tiles", grant.Tiles, "token", tg.Token)
	start := time.Now()
	rep, err := sess.Search(sctx, topts...)

	switch {
	case err == nil:
		elapsed := time.Since(start)
		w.observe(elapsed)
		w.wm.tiles.Inc()
		w.wm.tileSeconds.Observe(elapsed.Seconds())
		hb.finish(tg.Token)
		accepted, cerr := w.complete(ctx, tg.Token, rep)
		switch {
		case errors.Is(cerr, errLeaseLost):
			w.logger().Info("completed after lease loss; result discarded",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
		case cerr != nil:
			// The result is lost; the lease expires and the tile is
			// re-issued. Nothing to clean up.
			w.logger().Warn("posting result failed",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token, "error", cerr)
		case !accepted:
			w.logger().Info("duplicate result discarded by coordinator",
				"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
		}
	case hb.lost(tg.Token):
		w.logger().Info("lease lost mid-search; abandoning tile",
			"job", grant.Job, "tile", tg.Tile, "token", tg.Token)
	case ctx.Err() != nil:
		// Shutdown: leave the leases to expire and be re-issued.
	default:
		// A deterministic execution error: retrying elsewhere cannot
		// help, so fail the job loudly (and drop the rest of the batch
		// — its leases die with the job).
		w.logger().Error("tile failed; failing the job",
			"job", grant.Job, "tile", tg.Tile, "token", tg.Token, "error", err)
		w.failJob(ctx, tg.Token, err.Error())
		return false
	}
	return true
}

// heartbeats renews every outstanding lease of one grant batch at
// TTL/3 until stopped. A token whose renewal comes back "gone" is
// marked lost, and if it belongs to the currently running tile, that
// search is cancelled so the worker stops burning cycles on a tile it
// no longer owns.
type heartbeats struct {
	w    *Worker
	done chan struct{}
	quit chan struct{}

	mu        sync.Mutex
	live      map[string]bool
	lostSet   map[string]bool
	curToken  string
	curCancel context.CancelFunc
}

func (w *Worker) startHeartbeats(ctx context.Context, grant LeaseGrant, tiles []TileGrant) *heartbeats {
	hb := &heartbeats{
		w:       w,
		done:    make(chan struct{}),
		quit:    make(chan struct{}),
		live:    make(map[string]bool, len(tiles)),
		lostSet: make(map[string]bool),
	}
	for _, tg := range tiles {
		hb.live[tg.Token] = true
	}
	interval := time.Duration(grant.TTLMillis) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(hb.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-hb.quit:
				return
			case <-ticker.C:
				hb.renewAll(ctx)
			}
		}
	}()
	return hb
}

// renewAll heartbeats every live token once.
func (hb *heartbeats) renewAll(ctx context.Context) {
	hb.mu.Lock()
	tokens := make([]string, 0, len(hb.live))
	for tok := range hb.live {
		tokens = append(tokens, tok)
	}
	hb.mu.Unlock()
	for _, tok := range tokens {
		if ctx.Err() != nil {
			return
		}
		if err := hb.w.renewOnce(ctx, tok); err != nil {
			hb.w.wm.leasesLost.Inc()
			hb.mu.Lock()
			delete(hb.live, tok)
			hb.lostSet[tok] = true
			cancel := hb.curCancel
			isCurrent := hb.curToken == tok
			hb.mu.Unlock()
			if isCurrent && cancel != nil {
				cancel()
			}
		}
	}
}

// setCurrent marks the tile now computing, so a lost lease can cancel
// exactly that search.
func (hb *heartbeats) setCurrent(token string, cancel context.CancelFunc) {
	hb.mu.Lock()
	hb.curToken, hb.curCancel = token, cancel
	hb.mu.Unlock()
}

func (hb *heartbeats) clearCurrent() {
	hb.mu.Lock()
	hb.curToken, hb.curCancel = "", nil
	hb.mu.Unlock()
}

// finish stops renewing a completed tile's token.
func (hb *heartbeats) finish(token string) {
	hb.mu.Lock()
	delete(hb.live, token)
	hb.mu.Unlock()
}

// lost reports whether the token's lease is gone.
func (hb *heartbeats) lost(token string) bool {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return hb.lostSet[token]
}

// stop terminates the heartbeat goroutine and waits for it.
func (hb *heartbeats) stop() {
	close(hb.quit)
	<-hb.done
}

// session returns the cached Session for a grant's dataset. On a cache
// miss it tries the on-disk pack cache, then fetches from the
// coordinator — packed .tpack bytes, decoded without re-binarizing —
// and verifies the loaded dataset's content hash against the grant
// before trusting it.
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
	var s *trigene.Session
	if store.IsPack(raw) {
		s, err = trigene.ReadPack(bytes.NewReader(raw))
	} else {
		// Compatibility: an old coordinator serving the raw binary form.
		var mx *trigene.Matrix
		if mx, err = trigene.ReadBinary(bytes.NewReader(raw)); err == nil {
			s, err = trigene.NewSession(mx)
		}
	}
	if err != nil {
		return nil, err
	}
	// Verify the fetched dataset against the grant: this coordinator
	// names the content hash; an old one hashed the raw bytes, so the
	// binary-compat path accepts that fingerprint too.
	contentMatch := s.DatasetHash() == grant.DatasetSHA256
	if !contentMatch {
		if legacy := fmt.Sprintf("%x", sha256.Sum256(raw)); legacy != grant.DatasetSHA256 {
			// The job behind this ID changed under us (coordinator
			// restart between grant and fetch); abandon rather than
			// compute on the wrong data.
			return nil, fmt.Errorf("dataset fingerprint mismatch: fetched %.12s… (content %.12s…), lease names %.12s…",
				legacy, s.DatasetHash(), grant.DatasetSHA256)
		}
	}
	if contentMatch {
		// Only content-hash-named packs go to disk: a legacy byte-hash
		// key would fail sessionFromDisk's self-check on reload.
		w.persistPack(grant.DatasetSHA256, raw, s)
	}
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

// persistPack writes a verified dataset into the pack cache (atomic
// rename so concurrent workers sharing the directory never read a
// torn file). Failures only cost the cache, not the tile.
func (w *Worker) persistPack(hash string, raw []byte, s *trigene.Session) {
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
	if store.IsPack(raw) {
		_, err = tmp.Write(raw)
	} else {
		err = s.WritePack(tmp)
	}
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

// renewOnce heartbeats the lease, carrying the current capability
// report, and tolerates transient transport errors (only an
// authoritative "gone" loses the lease).
func (w *Worker) renewOnce(ctx context.Context, token string) error {
	err := w.Client.renew(ctx, token, RenewRequest{Worker: w.ID, TilesPerSec: w.tilesPerSec()})
	if errors.Is(err, errLeaseLost) {
		return err
	}
	if err != nil && ctx.Err() == nil {
		w.logger().Warn("renew failed; will retry", "token", token, "error", err)
	}
	return nil
}

// complete posts the tile Report.
func (w *Worker) complete(ctx context.Context, token string, rep *trigene.Report) (bool, error) {
	return w.Client.complete(ctx, token, rep)
}

// failJob reports a deterministic failure.
func (w *Worker) failJob(ctx context.Context, token, msg string) {
	if err := w.Client.fail(ctx, token, msg); err != nil && !errors.Is(err, errLeaseLost) && ctx.Err() == nil {
		w.logger().Warn("reporting job failure failed", "token", token, "error", err)
	}
}
