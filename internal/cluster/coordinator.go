package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trigene"
	"trigene/internal/engine"
	"trigene/internal/sched"
	"trigene/internal/store"
	"trigene/internal/wal"
)

// discardLogger is the default when no Logger is configured.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is how long a granted tile stays covered without a
	// heartbeat renewal (default 15s). Workers renew at TTL/3, so the
	// TTL bounds how stale a dead worker's tile can get before
	// re-issue.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one tile is granted before the
	// job is declared failed — the brake against a tile that kills
	// every worker that touches it (default 5).
	MaxAttempts int
	// Retain is how many finished jobs (done, failed or cancelled) keep
	// their status and merged result before the oldest are evicted
	// (default 64). On a durable coordinator a retained job also keeps
	// its dataset's pack, which a submission by reference reads back.
	Retain int
	// Logger receives coordinator events as structured records; every
	// line carries the IDs it concerns (job, worker, tile) as
	// attributes. Default: discard.
	Logger *slog.Logger
	// Now supplies the clock (default time.Now); tests inject it.
	Now func() time.Time
	// StateDir is the durability root used by Recover: a write-ahead
	// journal plus snapshots under it make every acknowledged state
	// transition survive a coordinator crash. NewCoordinator ignores it
	// (in-memory coordinator); Recover requires it.
	StateDir string
	// SnapshotEvery is the fewest journal records that accumulate
	// before the full state is compacted into a snapshot and the journal
	// reset (default 256). Compaction also waits until the journal holds
	// at least as many bytes as the last snapshot, so writing snapshots
	// costs at most one byte per journaled byte and a recovery replays
	// at most about twice the live state. Only meaningful with StateDir.
	SnapshotEvery int
}

// Coordinator owns the job queue and the lease book of a cluster. It
// is an http.Handler serving the /v1 wire contract. State lives in
// memory; a Coordinator built by Recover additionally journals every
// state transition to a write-ahead log (see durable.go), so a
// restart replays to exactly the acknowledged state.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order; finished jobs stay until evicted
	seq     int
	workers map[string]*workerInfo
	swept   time.Time // last retention sweep of workers

	// pins counts the submissions of each dataset hash between resolving
	// their dataset and holding it in a job: the pack store keeps a
	// pinned hash's pack even when no retained job names it (dropPackLocked).
	pins map[string]int

	// wake is closed (and replaced) by wakeLocked whenever a parked
	// long-poll may have something to answer: a lease request when tiles
	// became grantable, a status request when a job finished.
	wake chan struct{}

	// log is the write-ahead journal (nil for an in-memory coordinator,
	// and never reassigned once Recover returns); replaying suppresses
	// journaling while recovery re-applies the log to itself. journaled
	// counts the records appended — a record's journal position is the
	// count just after it — and durable is the position fsynced so far;
	// commit (durable.go) moves it under syncMu, one fsync for every
	// waiter. syncMu is taken before mu, never after.
	log       *wal.Log
	replaying bool
	journaled uint64
	durable   atomic.Uint64
	syncMu    sync.Mutex

	// cm holds the metric hooks installed by Instrument (zero value:
	// every hook is a no-op).
	cm coordMetrics
}

// workerInfo is one worker's capability record, built from its lease
// requests (registration) and heartbeats.
type workerInfo struct {
	id          string
	capacity    float64 // advertised relative weight (default 1)
	tilesPerSec float64 // worker-measured throughput (0 = none yet)
	granted     int
	completed   int
	lastSeen    time.Time
	draining    bool // announced drain: no new leases for this worker
}

// Request body bounds, one per route: what a well-formed body of that
// route can need, with room to spare. A longer body answers 413.
const (
	// maxSubmitBody bounds POST /v1/jobs: a base64 dataset.
	maxSubmitBody = 1 << 30
	// maxLeaseBody bounds POST /v1/lease: a worker ID and three numbers.
	maxLeaseBody = 4 << 10
	// maxRenewBody bounds renew: a worker ID, a rate, and one token per
	// tile the worker holds.
	maxRenewBody = 1 << 20
	// maxDoneBody bounds done: a batch of tile results. Workers keep a
	// batch under half of it.
	maxDoneBody = 64 << 20
	// maxFailBody bounds fail: an error string.
	maxFailBody = 64 << 10
	// maxEmptyBody bounds drain, leave and cancel, which take no body
	// (clients send "{}").
	maxEmptyBody = 1 << 10
)

// maxTiles bounds a submission's tiles and screenTiles: a job's lease
// book and result slots are allocated per lease unit at the door, and
// past this many lease units a job only adds round trips.
const maxTiles = 1 << 16

// maxLongPoll caps how long a lease or status request may stay parked,
// whatever waitMillis asked for.
const maxLongPoll = 30 * time.Second

// longPoll starts the clock of a request that may park: the timer fires
// once waitMillis has elapsed — at once for a request that asked for no
// wait.
func longPoll(waitMillis int64) *time.Timer {
	return time.NewTimer(time.Duration(min(max(waitMillis, 0), maxLongPoll.Milliseconds())) * time.Millisecond)
}

// workerRetention bounds the capability registry: a worker unseen
// this long is deleted (worker IDs default to host:pid, so restarts
// mint new entries; without eviction a long-lived coordinator leaks).
const workerRetention = time.Hour

// staleAfter is how long a silent worker keeps influencing weighted
// lease sizing. A live worker is never silent this long: it polls
// every Poll while idle and heartbeats at TTL/3 while computing.
func (c *Coordinator) staleAfter() time.Duration {
	return 4 * c.cfg.LeaseTTL
}

// weight returns the worker's lease weight in the given currency.
func (w *workerInfo) weight(measured bool) float64 {
	if measured {
		return w.tilesPerSec
	}
	return w.capacity
}

// granteeRef names the holder of one tile's current lease — worker ID
// for accounting, grant seq so a draining worker's leases can be
// released under exactly the coordinates it holds.
type granteeRef struct {
	worker string
	seq    uint64
}

// NewCoordinator returns a Coordinator serving the /v1 wire contract.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 64
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		workers: make(map[string]*workerInfo),
		pins:    make(map[string]int),
		wake:    make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	c.mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	c.mux.HandleFunc("POST /v1/workers/{id}/drain", c.handleDrain)
	c.mux.HandleFunc("POST /v1/workers/{id}/leave", c.handleLeave)
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs", c.handleList)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/dataset", c.handleDataset)
	c.mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	c.mux.HandleFunc("POST /v1/jobs/{id}/cancel", c.handleCancel)
	c.mux.HandleFunc("POST /v1/lease", c.handleLease)
	c.mux.HandleFunc("POST /v1/lease/{token}/renew", c.handleRenew)
	c.mux.HandleFunc("POST /v1/lease/{token}/done", c.handleComplete)
	c.mux.HandleFunc("POST /v1/lease/{token}/fail", c.handleFail)
	return c
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// LeaseTTL returns the configured lease duration.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readBody(w, r, maxSubmitBody, &req) {
		return
	}
	if req.Tiles < 1 || req.Tiles > maxTiles {
		writeErr(w, http.StatusBadRequest, "tiles must be in [1, %d], got %d", maxTiles, req.Tiles)
		return
	}
	// Fail configuration and dataset errors at the door, not on the
	// first worker.
	if _, err := req.Spec.Options(); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	if req.Spec.MaxWorkers < 0 || req.Spec.DeadlineMillis < 0 {
		writeErr(w, http.StatusBadRequest, "invalid spec: maxWorkers and deadlineMillis must be ≥ 0")
		return
	}
	if req.ScreenTiles < 0 || req.ScreenTiles > maxTiles {
		writeErr(w, http.StatusBadRequest, "screenTiles must be in [0, %d], got %d", maxTiles, req.ScreenTiles)
		return
	}
	// The hash becomes a file name in the pack store: nothing but a hex
	// SHA-256 reaches a filesystem call.
	if req.DatasetSHA256 != "" && !validDatasetHash(req.DatasetSHA256) {
		writeErr(w, http.StatusBadRequest, "invalid datasetSHA256 %q: want 64 lowercase hex characters", req.DatasetSHA256)
		return
	}
	if req.DatasetSHA256 == "" && len(req.Dataset) == 0 {
		writeErr(w, http.StatusBadRequest, "invalid dataset: the request sets neither dataset nor datasetSHA256")
		return
	}
	ds, code, err := c.submittedDataset(&req)
	if err != nil {
		if code == http.StatusNotFound {
			writeJSON(w, code, errorBody{Error: err.Error(), Code: codeDatasetNotHeld})
		} else {
			writeErr(w, code, "%v", err)
		}
		return
	}
	defer c.unpin(ds.sha)

	// Permutation submissions are validated loudly at the door: the
	// candidates against the dataset, and the search-shaping fields —
	// which a permutation job cannot honor — rejected rather than
	// silently ignored. Tiles shard the permutation index range, so
	// there must be at least one permutation per tile.
	if pm := req.Spec.Perm; pm != nil {
		if err := pm.Validate(ds.snps); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid spec: %v", err)
			return
		}
		if req.Spec.Screen != nil ||
			req.Spec.Approach != "" || req.Spec.Order != 0 || req.Spec.TopK > 1 {
			writeErr(w, http.StatusBadRequest,
				"invalid spec: permutation jobs do not combine with screen/approach/order/topK")
			return
		}
		if perms := pm.PermutationCount(); req.Tiles > perms {
			writeErr(w, http.StatusBadRequest,
				"tiles (%d) must not exceed the permutation count (%d)", req.Tiles, perms)
			return
		}
	}

	// Screened submissions are validated loudly at the door — negative
	// budgets, survivors exceeding the dataset's SNP count, malformed
	// seeds — and sized as two phases: screenTiles stage-1 pair-scan
	// shards ahead of the req.Tiles stage-2 search tiles. A spec with
	// pinned survivors skips the stage-1 phase (each tile runs the
	// pinned screened search directly).
	screenTiles := 0
	if sc := req.Spec.Screen; sc != nil {
		if err := sc.Validate(ds.snps); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid spec: %v", err)
			return
		}
		if len(sc.Survivors) == 0 {
			// A time budget is priced by the rate one host's search
			// measures, and a local run of the same spec would differ.
			if sc.MaxSurvivors == 0 || sc.BudgetSeconds > 0 {
				writeErr(w, http.StatusBadRequest,
					"invalid spec: cluster screens need an explicit survivor budget (maxSurvivors) and no time budget (budgetSeconds); a time budget is priced by one host's measured search")
				return
			}
			screenTiles = req.ScreenTiles
			if screenTiles == 0 {
				screenTiles = req.Tiles
			}
		}
	}

	// A search space past int64 combinations fails here, not on the
	// first worker: C(n, order) over the n SNPs stage 2 searches, which
	// a cluster screen pins or caps.
	if req.Spec.Perm == nil {
		n, order := ds.snps, req.Spec.Order
		if order == 0 {
			order = 3
		}
		if sc := req.Spec.Screen; sc != nil {
			n = min(n, sc.MaxSurvivors)
			if len(sc.Survivors) > 0 {
				n = len(sc.Survivors)
			}
		}
		if err := engine.CheckSpace(n, order); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid spec: %v", err)
			return
		}
	}

	// The submission must be durable before it is acknowledged: an
	// uploaded dataset goes to the pack store (content-addressed, so
	// outside the lock; the pin keeps eviction from deleting it), then
	// the submit record is committed. Until that commit returns the job
	// exists but is granted to nobody — a crash must not leave a worker
	// holding a lease on a job ID the restarted coordinator mints again.
	if c.log != nil && ds.uploaded {
		if err := c.writePack(ds.sha, ds.data); err != nil {
			writeErr(w, http.StatusInternalServerError, "journaling submission: %v", err)
			return
		}
	}
	c.mu.Lock()
	c.seq++
	rec := walRecord{T: recSubmit, Job: "j" + strconv.Itoa(c.seq), Name: req.Name, Spec: &req.Spec,
		Tiles: req.Tiles + screenTiles, ScreenTiles: screenTiles,
		SHA: ds.sha, SNPs: ds.snps, Samples: ds.samples,
		UnixNs: c.cfg.Now().UnixNano()}
	j := newJob(rec)
	// One copy per hash: a running job on the same dataset may have
	// started while this one was being resolved.
	if held, _ := c.heldLocked(ds.sha); held.data != nil {
		ds.data = held.data
	}
	j.dataset = ds.data
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.journalJobLocked(j, rec)
	j.submitPos = j.pos
	c.mu.Unlock()
	err = c.commit(j.submitPos)
	c.mu.Lock()
	if err != nil {
		// An unacknowledged submission must not run. Its ID stays spent.
		delete(c.jobs, j.id)
		for i, id := range c.order {
			if id == j.id {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	} else {
		c.wakeLocked()
	}
	c.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "journaling submission: %v", err)
		return
	}
	c.cm.submitted.Inc()
	c.cm.submission(ds.uploaded)
	c.cfg.Logger.Info("job submitted",
		"job", j.id, "name", j.name, "tiles", j.tiles,
		"snps", j.snps, "samples", j.samples, "backend", req.Spec.Backend,
		"uploaded", ds.uploaded)
	writeJSON(w, http.StatusCreated, SubmitResponse{ID: j.id, Tiles: j.tiles})
}

// heldDataset is a dataset the coordinator holds, or a submission
// resolved to: its content hash, packed .tpack bytes (nil when only the
// pack store has them) and shape.
type heldDataset struct {
	sha           string
	data          []byte
	snps, samples int
	uploaded      bool // the submission carried the bytes
}

// submittedDataset resolves the dataset a submission names — the
// uploaded bytes, or by reference the dataset held under its hash — and
// pins its hash; the caller unpins it once the job holds the dataset or
// the submission is refused. It answers the HTTP status of a refusal:
// 400 for an upload that does not decode or does not hash to the named
// hash, 404 for a reference to a dataset the coordinator does not hold.
func (c *Coordinator) submittedDataset(req *SubmitRequest) (heldDataset, int, error) {
	if len(req.Dataset) == 0 {
		c.mu.Lock()
		ds, named := c.heldLocked(req.DatasetSHA256)
		c.pins[ds.sha]++
		c.mu.Unlock()
		if ds.data == nil && named && c.log != nil {
			// A retained job names the hash, so its pack is in the store
			// unless a crash lost the delete that followed an eviction the
			// journal then lost too; the pin keeps it there now.
			ds.data, _ = os.ReadFile(c.packPath(ds.sha))
		}
		if ds.data == nil {
			c.unpin(ds.sha)
			return ds, http.StatusNotFound, fmt.Errorf("dataset %s is not held; submit it with its bytes", ds.sha)
		}
		return ds, 0, nil
	}
	// Accept the dataset as trigene binary or .tpack, and hold (and
	// serve) it as the version 2 pack its session writes either way: the
	// coordinator packs a binary submission once, a version 1 pack
	// sheds the plane sections no search reads, and every worker that
	// fetches the job reads the packed sections under their content
	// hash.
	ds := heldDataset{uploaded: true}
	sess, err := uploadedSession(req.Dataset)
	if err != nil {
		return ds, http.StatusBadRequest, fmt.Errorf("invalid dataset: %v", err)
	}
	var buf bytes.Buffer
	if err := sess.WritePack(&buf); err != nil {
		return ds, http.StatusInternalServerError, fmt.Errorf("packing dataset: %v", err)
	}
	ds.data = buf.Bytes()
	ds.sha, ds.snps, ds.samples = sess.DatasetHash(), sess.SNPs(), sess.Samples()
	if req.DatasetSHA256 != "" && req.DatasetSHA256 != ds.sha {
		return ds, http.StatusBadRequest, fmt.Errorf("invalid dataset: its content hash is %s, the request names %s", ds.sha, req.DatasetSHA256)
	}
	c.mu.Lock()
	c.pins[ds.sha]++
	c.mu.Unlock()
	return ds, 0, nil
}

// uploadedSession decodes an uploaded dataset, a .tpack or trigene
// binary.
func uploadedSession(data []byte) (*trigene.Session, error) {
	if store.IsPack(data) {
		return trigene.ReadPack(bytes.NewReader(data))
	}
	mx, err := trigene.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return trigene.NewSession(mx)
}

// heldLocked looks a dataset up among the retained jobs: the shared
// in-memory bytes of a running job on it when there is one, else just
// its shape, with named reporting whether any retained job names the
// hash at all.
func (c *Coordinator) heldLocked(sha string) (ds heldDataset, named bool) {
	ds.sha = sha
	for _, id := range c.order {
		j := c.jobs[id]
		if j.datasetSHA != sha {
			continue
		}
		named, ds.snps, ds.samples = true, j.snps, j.samples
		if j.dataset != nil {
			ds.data = j.dataset
			break
		}
	}
	return ds, named
}

// unpin releases a submission's pin on a dataset hash, and with it the
// hash's pack when nothing else keeps it (a refused or unacknowledged
// submission of a dataset no retained job names).
func (c *Coordinator) unpin(sha string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pins[sha]--; c.pins[sha] <= 0 {
		delete(c.pins, sha)
		c.dropPackLocked(sha)
	}
}

// validDatasetHash reports whether s is a hex SHA-256 as
// Session.DatasetHash writes it: 64 lowercase hex characters.
func validDatasetHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if b := s[i]; (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	now := c.cfg.Now()
	c.mu.Lock()
	// Deadlines are enforced lazily, on observation; iterate a copy
	// because a tripped deadline can evict finished jobs from c.order.
	order := append([]string(nil), c.order...)
	list := JobList{Jobs: make([]JobStatus, 0, len(order))}
	for _, id := range order {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		c.enforceDeadlineLocked(j, now)
	}
	var pos uint64
	for _, id := range c.order {
		j := c.jobs[id]
		list.Jobs = append(list.Jobs, j.status(now))
		pos = max(pos, j.pos)
	}
	c.mu.Unlock()
	if !c.committed(w, pos) {
		return
	}
	writeJSON(w, http.StatusOK, list)
}

// handleStatus answers one job's status — never a state that is not
// durable yet. With ?waitMillis= the request parks while the job runs
// and answers as soon as it leaves StateRunning, or with the running
// status once the wait elapses.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wait, _ := strconv.ParseInt(r.URL.Query().Get("waitMillis"), 10, 64)
	expired := longPoll(wait)
	defer expired.Stop()
	for {
		now := c.cfg.Now()
		c.mu.Lock()
		j, ok := c.jobs[id]
		if !ok {
			c.mu.Unlock()
			writeErr(w, http.StatusNotFound, "no such job %q", id)
			return
		}
		c.enforceDeadlineLocked(j, now)
		st, pos, wake := j.status(now), j.pos, c.wake
		c.mu.Unlock()
		if st.State == StateRunning {
			select {
			case <-wake:
				continue
			case <-expired.C:
			case <-r.Context().Done():
				return
			}
		}
		if c.committed(w, pos) {
			writeJSON(w, http.StatusOK, st)
		}
		return
	}
}

func (c *Coordinator) handleDataset(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	var data []byte
	if ok {
		data = j.dataset
	}
	c.mu.Unlock()
	switch {
	case !ok:
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	case data == nil:
		writeErr(w, http.StatusGone, "job %s is finished; its dataset is released", r.PathValue("id"))
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	var st JobStatus
	var result *trigene.Report
	var pos uint64
	if ok {
		st, result, pos = j.status(c.cfg.Now()), j.result, j.pos
	}
	c.mu.Unlock()
	switch {
	case !ok:
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	case st.State == StateRunning:
		writeErr(w, http.StatusConflict, "job %s still running: %d/%d tiles done", st.ID, st.Done, st.Tiles)
	case !c.committed(w, pos):
	case result == nil:
		writeErr(w, http.StatusGone, "job %s %s: %s", st.ID, st.State, st.Error)
	default:
		writeJSON(w, http.StatusOK, result)
	}
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	if !readBody(w, r, maxEmptyBody, nil) {
		return
	}
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	var pos uint64
	if ok {
		if j.state == StateRunning {
			c.finishLocked(j, StateCancelled, "cancelled by request")
		}
		pos = j.pos
	}
	c.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if c.committed(w, pos) {
		writeJSON(w, http.StatusOK, struct{}{})
	}
}

// handleLease grants the worker its next tiles. With waitMillis the
// request parks while nothing is grantable and is answered the moment
// something is (wakeLocked), or 204 once the wait elapses. A request
// whose worker leaves while it is parked answers 204 too: granting it
// would re-register the departed worker and lease it tiles it never
// runs, among them the ones its leave just released.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readBody(w, r, maxLeaseBody, &req) {
		return
	}
	expired := longPoll(req.WaitMillis)
	defer expired.Stop()
	var registered *workerInfo // the record this request's first look found or made
	for {
		c.mu.Lock()
		if registered != nil && c.workers[req.Worker] != registered {
			c.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		grant, ok := c.grantLocked(req, c.cfg.Now())
		registered = c.workers[req.Worker]
		wake := c.wake
		c.mu.Unlock()
		if ok {
			writeJSON(w, http.StatusOK, grant)
			return
		}
		select {
		case <-wake:
		case <-expired.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// grantLocked registers the worker's report and grants it tiles of the
// first job that has any, ok false when none does. Grants are journaled
// through the buffer only — no fsync on this path: losing one in a
// crash is benign (the restored table's seq counter stays below the
// lost grant, so its holder's completion answers "gone" and the tile
// simply re-issues), and it keeps lease throughput at in-memory speed.
func (c *Coordinator) grantLocked(req LeaseRequest, now time.Time) (LeaseGrant, bool) {
	wi := c.touchWorkerLocked(req.Worker, now)
	if req.Capacity > 0 {
		wi.capacity = req.Capacity
	}
	if req.TilesPerSec > 0 {
		wi.tilesPerSec = req.TilesPerSec
	}
	if wi.draining {
		// A draining worker is finishing what it holds; granting it
		// more would delay both the drain and the tiles.
		return LeaseGrant{}, false
	}
	// First running job (submission order) with an available tile: a
	// FIFO queue in which later jobs still progress once earlier ones
	// are fully leased. A grant never spans jobs. Iterate a copy: a
	// tripped deadline can evict finished jobs from c.order.
	for _, id := range append([]string(nil), c.order...) {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		c.enforceDeadlineLocked(j, now)
		if j.state != StateRunning || j.submitPos > c.durable.Load() {
			continue
		}
		if !c.underWorkerCapLocked(j, req.Worker, now) {
			continue
		}
		size := c.grantSizeLocked(wi, j, now)
		granted := make([]TileGrant, 0, size)
		for len(granted) < size {
			l, ok := j.leases.AcquireBelow(now, c.cfg.LeaseTTL, j.grantable())
			if !ok {
				break
			}
			if l.Attempt > c.cfg.MaxAttempts {
				c.cfg.Logger.Error("tile exhausted its attempts; failing the job",
					"job", j.id, "tile", l.Tile, "maxAttempts", c.cfg.MaxAttempts)
				c.finishLocked(j, StateFailed,
					fmt.Sprintf("tile %d of %d was re-issued %d times without completing", l.Tile, j.tiles, c.cfg.MaxAttempts))
				break
			}
			if l.Attempt > 1 {
				c.cm.reissued.Inc()
				c.cfg.Logger.Warn("re-issuing tile",
					"job", j.id, "tile", l.Tile, "attempt", l.Attempt, "worker", req.Worker)
			}
			granted = append(granted, TileGrant{Token: leaseToken(j.id, l), Tile: l.Tile})
			j.grantee[l.Tile] = granteeRef{worker: req.Worker, seq: l.Seq}
			c.journalLocked(walRecord{T: recGrant, Job: j.id, Tile: l.Tile,
				Seq: l.Seq, Attempt: l.Attempt, Worker: req.Worker,
				UnixNs: now.Add(c.cfg.LeaseTTL).UnixNano()})
		}
		if j.state != StateRunning || len(granted) == 0 {
			continue
		}
		wi.granted += len(granted)
		c.cm.leasesGranted.Add(int64(len(granted)))
		c.cfg.Logger.Debug("tiles granted", "job", j.id, "tiles", len(granted), "worker", req.Worker)
		ph := j.phases[j.open]
		resp := LeaseGrant{
			Token:         granted[0].Token,
			Job:           j.id,
			DatasetSHA256: j.datasetSHA,
			Spec:          j.grantSpec,
			Tile:          granted[0].Tile,
			Tiles:         j.tiles,
			Stage:         ph.kind.stage,
			Granted:       granted,
			TTLMillis:     c.cfg.LeaseTTL.Milliseconds(),
			Batch:         true,
			BinaryReports: true,
		}
		if len(j.phases) > 1 {
			// A one-phase job's tiles are its shards; only a phase of
			// several says where in the lease units it sits.
			resp.StageBase, resp.StageCount = ph.base, ph.count
		}
		return resp, true
	}
	return LeaseGrant{}, false
}

// wakeLocked releases every parked long-poll to look again.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// touchWorkerLocked returns (creating if needed) the worker's
// capability record and stamps its last-seen instant. Once per
// staleness window it also evicts registry entries past retention.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerInfo {
	if now.Sub(c.swept) > c.staleAfter() {
		c.swept = now
		for oid, o := range c.workers {
			if now.Sub(o.lastSeen) > workerRetention {
				delete(c.workers, oid)
			}
		}
	}
	wi := c.workers[id]
	if wi == nil {
		wi = &workerInfo{id: id, capacity: 1}
		c.workers[id] = wi
	}
	wi.lastSeen = now
	return wi
}

// grantSizeLocked sizes this worker's next grant from job j by guided
// self-scheduling: its weight's share of half the tiles still unleased,
// ceil(unleased · w / (2 · Σ live w)). Early grants are large, so round
// trips are few; they shrink toward the tail, so the last tiles spread
// over every worker; and a worker's share is proportional to its weight
// throughout. Weights compare measured tiles/sec once every live worker
// has reported one, and advertised capacities until then — never a mix
// of the two currencies; draining workers and workers silent past the
// staleness window are not live. A grant is at least one tile, and at
// most what the worker's own reported rate finishes in one heartbeat
// interval (TTL/3), which keeps a prefetched grant inside its lease and
// gives a worker that has measured nothing yet a single tile to measure.
func (c *Coordinator) grantSizeLocked(wi *workerInfo, j *job, now time.Time) int {
	live := func(o *workerInfo) bool { return !o.draining && now.Sub(o.lastSeen) <= c.staleAfter() }
	measured := true
	for _, o := range c.workers {
		if live(o) && o.tilesPerSec <= 0 {
			measured = false
			break
		}
	}
	var sum float64
	for _, o := range c.workers {
		if live(o) {
			sum += o.weight(measured)
		}
	}
	n := 1
	if weight := wi.weight(measured); weight > 0 && sum > 0 {
		unleased := float64(j.leases.AvailableBelow(now, j.grantable()))
		n = int(math.Ceil(unleased * weight / (2 * sum)))
	}
	pace := int(wi.tilesPerSec * (c.cfg.LeaseTTL / 3).Seconds())
	return max(1, min(n, pace))
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	now := c.cfg.Now()
	c.mu.Lock()
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	list := WorkerList{Workers: make([]WorkerStatus, 0, len(ids))}
	for _, id := range ids {
		wi := c.workers[id]
		list.Workers = append(list.Workers, WorkerStatus{
			ID:             wi.id,
			Capacity:       wi.capacity,
			TilesPerSec:    wi.tilesPerSec,
			Granted:        wi.granted,
			Completed:      wi.completed,
			LastSeenUnixMs: wi.lastSeen.UnixMilli(),
			AgeMs:          now.Sub(wi.lastSeen).Milliseconds(),
			Stale:          now.Sub(wi.lastSeen) > c.staleAfter(),
			Draining:       wi.draining,
		})
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

// handleDrain marks a worker as draining: it keeps (and finishes) the
// leases it holds, but is granted nothing new. Workers announce their
// own drain on SIGTERM; operators may also call it directly.
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	if !readBody(w, r, maxEmptyBody, nil) {
		return
	}
	id := r.PathValue("id")
	now := c.cfg.Now()
	c.mu.Lock()
	wi := c.touchWorkerLocked(id, now)
	wi.draining = true
	c.mu.Unlock()
	c.cfg.Logger.Info("worker draining", "worker", id)
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleLeave deregisters a worker and releases every lease it still
// holds, so its tiles re-issue on the next lease request instead of
// idling until TTL expiry. The releases are journaled and durable
// before the worker is told it may exit.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	if !readBody(w, r, maxEmptyBody, nil) {
		return
	}
	id := r.PathValue("id")
	c.mu.Lock()
	released, pos := c.releaseWorkerLeasesLocked(id)
	delete(c.workers, id)
	if released > 0 {
		c.wakeLocked()
	}
	c.mu.Unlock()
	if !c.committed(w, pos) {
		return
	}
	c.cfg.Logger.Info("worker left; leases released for immediate re-issue",
		"worker", id, "released", released)
	writeJSON(w, http.StatusOK, LeaveResponse{Released: released})
}

// releaseWorkerLeasesLocked frees every live lease the worker holds
// across all running jobs, journaling each release; pos is the journal
// position of the last one.
func (c *Coordinator) releaseWorkerLeasesLocked(worker string) (released int, pos uint64) {
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state != StateRunning {
			continue
		}
		for tile, g := range j.grantee {
			if g.worker != worker {
				continue
			}
			if j.leases.Release(tile, g.seq) {
				delete(j.grantee, tile)
				c.journalJobLocked(j, walRecord{T: recRelease, Job: j.id, Tile: tile, Seq: g.seq})
				pos = j.pos
				c.cm.released.Inc()
				released++
			}
		}
	}
	return released, pos
}

// underWorkerCapLocked enforces a job's MaxWorkers policy: when set,
// only workers already holding a live lease on the job may take more
// tiles once the cap many distinct holders exist.
func (c *Coordinator) underWorkerCapLocked(j *job, worker string, now time.Time) bool {
	if j.spec.MaxWorkers <= 0 {
		return true
	}
	holders := make(map[string]bool)
	for _, tile := range j.leases.Leased(now) {
		if g, ok := j.grantee[tile]; ok {
			holders[g.worker] = true
		}
	}
	return holders[worker] || len(holders) < j.spec.MaxWorkers
}

// enforceDeadlineLocked fails a running job whose wall-clock budget
// (SearchSpec.DeadlineMillis, measured from submission) has elapsed.
// Deadlines are checked on observation — lease, renew, complete,
// status — not by a timer, which keeps expiry deterministic under
// injected clocks and replays identically after recovery (the
// submission instant is durable).
func (c *Coordinator) enforceDeadlineLocked(j *job, now time.Time) {
	if j.state != StateRunning || j.spec.DeadlineMillis <= 0 {
		return
	}
	budget := time.Duration(j.spec.DeadlineMillis) * time.Millisecond
	if now.Sub(j.submitted) >= budget {
		c.cfg.Logger.Warn("job deadline exceeded", "job", j.id, "budget", budget)
		c.finishLocked(j, StateFailed,
			fmt.Sprintf("deadline of %dms exceeded with %d/%d tiles done", j.spec.DeadlineMillis, j.leases.Done(), j.tiles))
	}
}

// handleRenew extends the path token's lease and every token in More,
// all under one lock hold. Heartbeats double as capability reports; the
// body is optional.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	token := r.PathValue("token")
	if _, _, _, err := parseLeaseToken(token); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req RenewRequest
	if r.ContentLength != 0 && !readBody(w, r, maxRenewBody, &req) {
		return
	}
	now := c.cfg.Now()
	var resp RenewResponse
	c.mu.Lock()
	if req.Worker != "" {
		wi := c.touchWorkerLocked(req.Worker, now)
		if req.TilesPerSec > 0 {
			wi.tilesPerSec = req.TilesPerSec
		}
	}
	for _, tok := range append([]string{token}, req.More...) {
		jobID, tile, seq, err := parseLeaseToken(tok)
		j, ok := c.jobs[jobID]
		if ok {
			c.enforceDeadlineLocked(j, now)
		}
		if err == nil && ok && j.state == StateRunning && j.leases.Renew(tile, seq, now, c.cfg.LeaseTTL) {
			c.cm.leasesRenewed.Inc()
			continue
		}
		if ok {
			c.cm.leasesExpired.Inc()
		}
		resp.Lost = append(resp.Lost, tok)
	}
	c.mu.Unlock()
	if len(req.More) == 0 && len(resp.Lost) > 0 {
		writeErr(w, http.StatusGone, "lease %s is no longer current", token)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleComplete takes the path token's result and every result in
// More: each is accounted on its own (exactly once, its own journal
// record), and the request is answered after one commit makes all of
// them durable.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readBody(w, r, maxDoneBody, &req) {
		return
	}
	results := append([]TileResult{{Token: r.PathValue("token"), Report: req.Report, Screen: req.Screen, Perm: req.Perm}}, req.More...)
	resp := CompleteResponse{Results: make([]TileStatus, len(results))}
	now := c.cfg.Now()
	var pos uint64
	c.mu.Lock()
	for i, res := range results {
		var at uint64
		resp.Results[i], at = c.completeLocked(res, now)
		pos = max(pos, at)
	}
	c.mu.Unlock()
	c.cm.completionBatch.Observe(float64(len(results)))
	if !c.committed(w, pos) {
		return
	}
	first := resp.Results[0]
	resp.Accepted = first.Status == TileAccepted
	switch {
	case len(req.More) > 0 || first.Status == TileAccepted || first.Status == TileDiscarded:
		writeJSON(w, http.StatusOK, resp)
	case first.Status == TileGone:
		writeErr(w, http.StatusGone, "%s", first.Error)
	default:
		writeErr(w, http.StatusBadRequest, "%s", first.Error)
	}
}

// completeLocked accounts one posted tile result. at is the journal
// position that must be durable before the verdict is sent: the job's
// last transition for a result that was accepted or discarded (a
// discarded one's holder drops its copy, so the result that beat it
// must be safe), nothing for one that changed nothing.
func (c *Coordinator) completeLocked(res TileResult, now time.Time) (st TileStatus, at uint64) {
	verdict := func(status, format string, args ...any) (TileStatus, uint64) {
		return TileStatus{Token: res.Token, Status: status, Error: fmt.Sprintf(format, args...)}, 0
	}
	jobID, tile, seq, err := parseLeaseToken(res.Token)
	if err != nil {
		return verdict(TileInvalid, "%v", err)
	}
	j, ok := c.jobs[jobID]
	if ok {
		c.enforceDeadlineLocked(j, now)
	}
	if !ok || j.state != StateRunning {
		return verdict(TileGone, "job %s is not running", jobID)
	}
	// Decode and validate the payload of the tile's live lease before
	// touching the lease table, so a refused body never marks a tile done.
	// Any other lease's verdict does not depend on what it carries, and
	// its payload is not read.
	var part any
	if j.leases.Current(tile, seq) {
		if part, err = j.decode(tile, &res); err != nil {
			return verdict(TileInvalid, "%v", err)
		}
	}
	switch status := j.leases.Complete(tile, seq); status {
	case sched.CompleteAccepted:
		j.partials[tile] = part
		if wi := c.workers[j.grantee[tile].worker]; wi != nil {
			wi.completed++
		}
		c.journalJobLocked(j, walRecord{T: recComplete, Job: j.id, Tile: tile, Seq: seq, Report: res.Report, Screen: res.Screen, Perm: res.Perm})
		c.advanceLocked(j)
		c.cm.completed.Inc()
		return TileStatus{Token: res.Token, Status: TileAccepted}, j.pos
	case sched.CompleteDuplicate, sched.CompleteStale:
		// Exactly-once accounting: the tile's first result already
		// counted (or a re-issued lease owns it); this one is discarded.
		c.cm.discarded.Inc()
		c.cfg.Logger.Debug("discarding completion",
			"job", jobID, "tile", tile, "status", status.String())
		return TileStatus{Token: res.Token, Status: TileDiscarded}, j.pos
	default:
		return verdict(TileGone, "lease %s was never granted", res.Token)
	}
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	jobID, tile, seq, err := parseLeaseToken(r.PathValue("token"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req FailRequest
	if !readBody(w, r, maxFailBody, &req) {
		return
	}
	c.mu.Lock()
	j, ok := c.jobs[jobID]
	// Only the tile's live lease may fail the job: a superseded holder
	// (its tile was re-issued, possibly to a worker that handles the
	// spec fine) must not kill everyone else's work.
	running := ok && j.state == StateRunning
	current := running && j.leases.Current(tile, seq)
	var pos uint64
	if current {
		c.cfg.Logger.Error("tile failed deterministically",
			"job", jobID, "tile", tile, "error", req.Error)
		c.finishLocked(j, StateFailed, fmt.Sprintf("tile %d: %s", tile, req.Error))
		pos = j.pos
	}
	c.mu.Unlock()
	switch {
	case !running:
		writeErr(w, http.StatusGone, "job %s is not running", jobID)
	case !current:
		writeErr(w, http.StatusGone, "lease %s is no longer current", r.PathValue("token"))
	case c.committed(w, pos):
		writeJSON(w, http.StatusOK, struct{}{})
	}
}

// advanceLocked closes every phase of j that is complete and still
// open, in order: the kind's close turns the phase's partials into the
// job's result or into what the next phase's grants carry. Closing the
// last phase finishes the job; closing an earlier one opens the next to
// the parked lease requests. Recovery calls it too — a close is
// deterministic given the partials, so it is recomputed, not journaled.
func (c *Coordinator) advanceLocked(j *job) {
	for j.state == StateRunning {
		ph := j.phases[j.open]
		// The count of all done tiles settles most calls without a scan.
		if j.leases.Done() < ph.end() || j.leases.DoneBelow(ph.end()) < ph.end() {
			return
		}
		if err := ph.kind.close(j, j.partials[ph.base:ph.end()], c.cfg.Now()); err != nil {
			c.finishLocked(j, StateFailed, err.Error())
			return
		}
		if j.open++; j.open == len(j.phases) {
			c.finishLocked(j, StateDone, "")
			c.cfg.Logger.Info("job done", "job", j.id, "tiles", j.tiles)
			return
		}
		c.cfg.Logger.Info("phase closed; the next is open", "job", j.id, "closed", j.open, "of", len(j.phases))
		c.wakeLocked()
	}
}

// finishLocked moves a job out of StateRunning: records the outcome,
// releases the dataset, kills future lease traffic (renew/complete on
// a finished job answer 410 Gone) and evicts the oldest finished jobs
// beyond the retention cap.
func (c *Coordinator) finishLocked(j *job, state, errMsg string) {
	c.cm.finishCount(state)
	j.finish(state, errMsg, c.cfg.Now())
	if c.log != nil && !c.replaying {
		rec := walRecord{T: recFinish, Job: j.id, State: j.state, Err: j.err, UnixNs: j.finished.UnixNano()}
		if j.result != nil {
			rec.Result, _ = json.Marshal(j.result)
		}
		c.journalJobLocked(j, rec)
	}
	c.evictFinishedLocked()
	c.wakeLocked()
}

// evictFinishedLocked drops the oldest finished jobs beyond the
// retention cap, and the pack of a dataset the last of them named. It is
// shared by the live path (finishLocked) and journal replay, so eviction
// reproduces identically on recovery (which collects packs once, after
// the replay: gcPacksLocked).
func (c *Coordinator) evictFinishedLocked() {
	finished := 0
	for _, id := range c.order {
		if c.jobs[id].state != StateRunning {
			finished++
		}
	}
	for i := 0; finished > c.cfg.Retain && i < len(c.order); {
		id := c.order[i]
		j := c.jobs[id]
		if j.state == StateRunning {
			i++
			continue
		}
		delete(c.jobs, id)
		c.order = append(c.order[:i], c.order[i+1:]...)
		finished--
		c.dropPackLocked(j.datasetSHA)
	}
}

// leaseToken encodes a granted lease as "job.tile.seq" — opaque to
// workers, self-describing to the coordinator (no token table to leak).
func leaseToken(jobID string, l sched.TileLease) string {
	return jobID + "." + strconv.Itoa(l.Tile) + "." + strconv.FormatUint(l.Seq, 10)
}

// parseLeaseToken is the inverse of leaseToken.
func parseLeaseToken(tok string) (jobID string, tile int, seq uint64, err error) {
	parts := strings.Split(tok, ".")
	if len(parts) != 3 {
		return "", 0, 0, fmt.Errorf("malformed lease token %q", tok)
	}
	tile, err = strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, 0, fmt.Errorf("malformed lease token %q", tok)
	}
	seq, err = strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("malformed lease token %q", tok)
	}
	return parts[0], tile, seq, nil
}

// readBody decodes a JSON request body of at most limit bytes into v
// (nil for a route that takes none: the body is only drained). On
// failure it answers — 413 for a body past the bound, 400 for one that
// does not decode — and reports false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := error(&http.MaxBytesError{Limit: limit})
	if r.ContentLength <= limit {
		body := http.MaxBytesReader(w, r.Body, limit)
		if v == nil {
			_, err = io.Copy(io.Discard, body)
		} else {
			err = json.NewDecoder(body).Decode(v)
		}
	}
	var tooLong *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLong):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte bound of %s", limit, r.URL.Path)
	default:
		writeErr(w, http.StatusBadRequest, "decoding request body: %v", err)
	}
	return false
}

// committed waits until the journal is durable up to pos, answering 500
// itself (and reporting false) when the commit fails: no response a
// client builds on leaves before the state behind it is safe.
func (c *Coordinator) committed(w http.ResponseWriter, pos uint64) bool {
	if err := c.commit(pos); err != nil {
		writeErr(w, http.StatusInternalServerError, "journaling: %v", err)
		return false
	}
	return true
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr writes the uniform JSON error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}
