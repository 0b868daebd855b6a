// Durable coordinator state: a write-ahead journal plus snapshots
// (internal/wal) under Config.StateDir make every acknowledged state
// transition of the Coordinator survive a crash.
//
// The journal records the coordinator's state machine, not its bytes:
// one JSON record per transition — submit, grant, complete, release,
// finish — replayed in order on top of the latest snapshot. Datasets
// are deliberately kept out of the journal; they are content-addressed
// files under StateDir/packs/<sha256>.tpack, written (and fsynced)
// before the submit record that references them, and garbage-collected
// on recovery once no running job needs them.
//
// Durability policy is sync-on-ack by group commit. A handler applies
// its transition and appends the record under the coordinator's mutex,
// releases the mutex, and then waits in commit until the journal is
// durable up to that record; whichever waiter finds no commit in flight
// runs one — flush, then one fsync outside the mutex — for every record
// appended so far, so concurrent completions, and the many results of
// one batched completion, share an fsync, and nothing queues behind the
// disk while holding the lock. Two things are promised:
//
//   - No ack before its record is durable: submit accepted, tile result
//     counted or discarded, job finished or cancelled, worker released —
//     the response leaves only after commit returns.
//   - Nothing a client can observe is visible before it is durable: the
//     in-memory state runs ahead of the disk between append and commit,
//     so status, list and result wait for the job's last transition
//     (job.pos) before answering, and no tile of a job is granted before
//     its submission is durable.
//
// What may run ahead: lease grants are journaled through the buffer
// only and answered at once, because losing a grant is benign — the
// restored sequence counter stays below the lost grant's, so its
// holder's completion answers "gone", the worker abandons the tile, and
// the tile re-issues. That asymmetry keeps the grant path at in-memory
// speed (bench/ bounds it: gelems_per_s on cluster-loopback, and
// sched.lease_ns per grant). For the same reason a stage-2 grant may
// follow a stage-1 completion that is not durable yet: the pin it
// carries is recomputed identically from the re-executed shard.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"trigene"
	"trigene/internal/sched"
	"trigene/internal/wal"
)

// Journal record types (walRecord.T).
const (
	recSubmit   = "submit"
	recGrant    = "grant"
	recComplete = "complete"
	recRelease  = "release"
	recFinish   = "finish"
)

// walRecord is one journaled state transition. T selects the type;
// the other fields are per-type (UnixNs is the submission instant of
// a submit, the lease deadline of a grant, the finish instant of a
// finish).
type walRecord struct {
	T   string `json:"t"`
	Job string `json:"job,omitempty"`

	// submit
	Name        string              `json:"name,omitempty"`
	Spec        *trigene.SearchSpec `json:"spec,omitempty"`
	Tiles       int                 `json:"tiles,omitempty"`
	ScreenTiles int                 `json:"screenTiles,omitempty"`
	SHA         string              `json:"sha,omitempty"`
	SNPs        int                 `json:"snps,omitempty"`
	Samples     int                 `json:"samples,omitempty"`

	// grant / complete / release
	Tile    int    `json:"tile,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Worker  string `json:"worker,omitempty"`

	// complete: Report for search tiles, Screen for a screened job's
	// stage-1 tiles, Perm for a permutation job's range tiles. The
	// stage-2 pin is deliberately not journaled — recovery recomputes it
	// deterministically from the replayed scores.
	Report json.RawMessage `json:"report,omitempty"`
	Screen json.RawMessage `json:"screen,omitempty"`
	Perm   json.RawMessage `json:"perm,omitempty"`

	// finish
	State  string          `json:"state,omitempty"`
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`

	UnixNs int64 `json:"ns,omitempty"`
}

// walSnapshot is the full coordinator state a snapshot compacts the
// journal into. The worker capability registry is deliberately absent:
// it is a cache rebuilt from the first post-restart lease requests and
// heartbeats.
type walSnapshot struct {
	Seq  int      `json:"seq"`
	Jobs []walJob `json:"jobs"` // submission order
}

// walJob is one job's snapshot state.
type walJob struct {
	ID              string             `json:"id"`
	Name            string             `json:"name,omitempty"`
	Spec            trigene.SearchSpec `json:"spec"`
	Tiles           int                `json:"tiles"`
	State           string             `json:"state"`
	Err             string             `json:"err,omitempty"`
	SHA             string             `json:"sha,omitempty"`
	SNPs            int                `json:"snps,omitempty"`
	Samples         int                `json:"samples,omitempty"`
	LeaseSeq        uint64             `json:"leaseSeq,omitempty"`
	TileStates      []sched.TileState  `json:"tileStates,omitempty"`
	Grantees        []walGrantee       `json:"grantees,omitempty"`
	Reports         []json.RawMessage  `json:"reports,omitempty"`
	ScreenTiles     int                `json:"screenTiles,omitempty"`
	Screens         []json.RawMessage  `json:"screens,omitempty"`
	Perms           []json.RawMessage  `json:"perms,omitempty"`
	Result          json.RawMessage    `json:"result,omitempty"`
	SubmittedUnixNs int64              `json:"sub"`
	FinishedUnixNs  int64              `json:"fin,omitempty"`
}

// walGrantee is one tile's lease holder in a snapshot.
type walGrantee struct {
	Tile   int    `json:"tile"`
	Worker string `json:"worker"`
	Seq    uint64 `json:"seq"`
}

// Recover opens (creating if empty) the durable state under
// cfg.StateDir and returns a Coordinator journaling to it, with every
// job the journal records rebuilt: finished jobs keep their merged
// results, running jobs keep their queue position, completed tiles and
// restored leases — a worker that survived the coordinator crash can
// renew and complete under its pre-crash tokens, and a dead worker's
// tiles re-issue when their restored deadlines pass. A job whose last
// tile completed but whose finish record was lost with the crash is
// merged during recovery, so its result is bit-exact with the
// uninterrupted run.
func Recover(cfg Config) (*Coordinator, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("cluster: Recover requires Config.StateDir")
	}
	c := NewCoordinator(cfg)
	l, err := wal.Open(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	c.log = l
	c.mu.Lock()
	err = c.recoverLocked()
	c.mu.Unlock()
	if err != nil {
		l.Close()
		return nil, err
	}
	return c, nil
}

// Close flushes and closes the journal, after any commit in flight; the
// coordinator must not serve requests afterwards (one that still commits
// is answered 500). It is a no-op for in-memory coordinators.
func (c *Coordinator) Close() error {
	if c.log == nil {
		return nil
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Close()
}

// recoverLocked rebuilds the coordinator from the opened log:
// snapshot, then journal replay, then the fixups replay cannot express
// as records — reloading running jobs' datasets from the pack store,
// merging jobs whose finish record the crash swallowed, and collecting
// packs no running job references. Ends by compacting the recovered
// state into a fresh snapshot, so journals stay bounded across
// repeated restarts.
func (c *Coordinator) recoverLocked() error {
	c.replaying = true
	if snap := c.log.Snapshot(); len(snap) > 0 {
		if err := c.importSnapshotLocked(snap); err != nil {
			c.replaying = false
			return err
		}
	}
	replayed := len(c.log.Records())
	for _, raw := range c.log.Records() {
		var rec walRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// Records are CRC-framed, so this is a version mismatch,
			// not corruption; skipping one transition beats refusing
			// every job in the log.
			c.cfg.Logger.Warn("wal: skipping undecodable record", "error", err)
			continue
		}
		c.applyLocked(rec)
	}
	c.replaying = false

	running := 0
	for _, id := range append([]string(nil), c.order...) {
		j := c.jobs[id]
		if j == nil || j.state != StateRunning {
			continue
		}
		if j.screened() && j.stage2 == nil && j.screenDone() {
			// The stage-1 phase finished but the crash swallowed the pin:
			// recompute it from the replayed scores — MergeScreens and
			// SelectSurvivors are deterministic, so the stage-2 spec is
			// identical to the one pre-crash grants carried.
			c.pinStage2Locked(j)
			if j.state != StateRunning {
				continue
			}
		}
		// Replayed permutation ranges get the door check live ones got.
		// It fails here for a journal another release wrote: its hit
		// counts are draws of a different permutation stream, and
		// finishing the job with this build's workers would sum the two
		// into one p-value.
		for tile, ps := range j.perms {
			if ps == nil {
				continue
			}
			if err := ps.ValidateShape(); err != nil {
				c.cfg.Logger.Error("recovered permutation range refused", "job", j.id, "tile", tile, "error", err)
				c.finishLocked(j, StateFailed, fmt.Sprintf("recovered permutation range of tile %d: %v", tile, err))
				break
			}
		}
		if j.state != StateRunning {
			continue
		}
		if j.leases.Done() == j.tiles {
			// Every tile completed but the finish record was lost with
			// the crash: merge now, exactly as the uninterrupted run
			// would have.
			c.mergeLocked(j)
			continue
		}
		data, err := os.ReadFile(c.packPath(j.datasetSHA))
		if err != nil {
			c.cfg.Logger.Error("dataset pack lost after recovery", "job", j.id, "error", err)
			c.finishLocked(j, StateFailed, fmt.Sprintf("dataset missing after recovery: %v", err))
			continue
		}
		j.dataset = data
		running++
	}
	c.gcPacksLocked()
	if replayed > 0 {
		if err := c.snapshotLocked(); err != nil {
			return err
		}
	}
	if err := c.log.Sync(); err != nil {
		return err
	}
	c.durable.Store(c.journaled)
	c.cfg.Logger.Info("recovered durable state",
		"jobs", len(c.order), "running", running, "stateDir", c.cfg.StateDir)
	return nil
}

// applyLocked replays one journal record onto the in-memory state.
// Every case tolerates records referencing jobs that later finished
// and were evicted (their submit replays, their finish evicts again).
func (c *Coordinator) applyLocked(rec walRecord) {
	switch rec.T {
	case recSubmit:
		j := &job{
			id:          rec.Job,
			name:        rec.Name,
			tiles:       rec.Tiles,
			state:       StateRunning,
			datasetSHA:  rec.SHA,
			snps:        rec.SNPs,
			samples:     rec.Samples,
			leases:      sched.NewLeaseTable(rec.Tiles),
			reports:     make([]*trigene.Report, rec.Tiles),
			grantee:     make(map[int]granteeRef),
			screenTiles: rec.ScreenTiles,
			submitted:   time.Unix(0, rec.UnixNs),
		}
		if rec.ScreenTiles > 0 {
			j.screens = make([]*trigene.ScreenScores, rec.ScreenTiles)
		}
		if rec.Spec != nil {
			j.spec = *rec.Spec
		}
		if j.perm() {
			j.perms = make([]*trigene.PermScores, rec.Tiles)
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
		// Job IDs are "j<n>"; the counter resumes past every replayed
		// ID so restarts never mint an ID a worker may still hold.
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.Job, "j")); err == nil && n > c.seq {
			c.seq = n
		}
	case recGrant:
		j := c.jobs[rec.Job]
		if j == nil || j.state != StateRunning {
			return
		}
		j.leases.RestoreGrant(rec.Tile, rec.Seq, rec.Attempt, time.Unix(0, rec.UnixNs))
		j.grantee[rec.Tile] = granteeRef{worker: rec.Worker, seq: rec.Seq}
	case recComplete:
		j := c.jobs[rec.Job]
		if j == nil || j.state != StateRunning {
			return
		}
		if j.screened() && rec.Tile < j.screenTiles {
			var scores trigene.ScreenScores
			if err := json.Unmarshal(rec.Screen, &scores); err != nil {
				c.cfg.Logger.Warn("wal: undecodable stage-1 scores",
					"job", rec.Job, "tile", rec.Tile, "error", err)
				return
			}
			j.leases.RestoreDone(rec.Tile)
			j.screens[rec.Tile] = &scores
			return
		}
		if j.perm() {
			var perm trigene.PermScores
			if err := json.Unmarshal(rec.Perm, &perm); err != nil {
				c.cfg.Logger.Warn("wal: undecodable tile perm scores",
					"job", rec.Job, "tile", rec.Tile, "error", err)
				return
			}
			j.leases.RestoreDone(rec.Tile)
			j.perms[rec.Tile] = &perm
			return
		}
		var rep trigene.Report
		if err := json.Unmarshal(rec.Report, &rep); err != nil {
			c.cfg.Logger.Warn("wal: undecodable tile report",
				"job", rec.Job, "tile", rec.Tile, "error", err)
			return
		}
		j.leases.RestoreDone(rec.Tile)
		j.reports[rec.Tile] = &rep
	case recRelease:
		j := c.jobs[rec.Job]
		if j == nil || j.state != StateRunning {
			return
		}
		if j.leases.Release(rec.Tile, rec.Seq) {
			delete(j.grantee, rec.Tile)
		}
	case recFinish:
		j := c.jobs[rec.Job]
		if j == nil {
			return
		}
		j.state = rec.State
		j.err = rec.Err
		j.dataset = nil
		j.reports = nil
		j.perms = nil
		j.grantee = nil
		j.finished = time.Unix(0, rec.UnixNs)
		if len(rec.Result) > 0 {
			var rep trigene.Report
			if err := json.Unmarshal(rec.Result, &rep); err == nil {
				j.result = &rep
			}
		}
		c.evictFinishedLocked()
	default:
		c.cfg.Logger.Warn("wal: skipping record of unknown type", "type", rec.T)
	}
}

// importSnapshotLocked rebuilds jobs from a compacted snapshot.
func (c *Coordinator) importSnapshotLocked(data []byte) error {
	var snap walSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("cluster: decoding snapshot: %w", err)
	}
	c.seq = snap.Seq
	for _, wj := range snap.Jobs {
		j := &job{
			id:         wj.ID,
			name:       wj.Name,
			spec:       wj.Spec,
			tiles:      wj.Tiles,
			state:      wj.State,
			err:        wj.Err,
			datasetSHA: wj.SHA,
			snps:       wj.SNPs,
			samples:    wj.Samples,
			leases:     sched.ImportLeaseTable(wj.LeaseSeq, wj.TileStates),
			submitted:  time.Unix(0, wj.SubmittedUnixNs),
		}
		if wj.TileStates == nil {
			j.leases = sched.NewLeaseTable(wj.Tiles)
		}
		if wj.FinishedUnixNs != 0 {
			j.finished = time.Unix(0, wj.FinishedUnixNs)
		}
		if len(wj.Result) > 0 {
			var rep trigene.Report
			if err := json.Unmarshal(wj.Result, &rep); err == nil {
				j.result = &rep
			}
		}
		if wj.State == StateRunning {
			j.reports = make([]*trigene.Report, wj.Tiles)
			for i, raw := range wj.Reports {
				if i >= wj.Tiles || len(raw) == 0 {
					continue
				}
				var rep trigene.Report
				if err := json.Unmarshal(raw, &rep); err == nil {
					j.reports[i] = &rep
				}
			}
			j.screenTiles = wj.ScreenTiles
			if wj.ScreenTiles > 0 {
				j.screens = make([]*trigene.ScreenScores, wj.ScreenTiles)
				for i, raw := range wj.Screens {
					if i >= wj.ScreenTiles || len(raw) == 0 {
						continue
					}
					var sc trigene.ScreenScores
					if err := json.Unmarshal(raw, &sc); err == nil {
						j.screens[i] = &sc
					}
				}
			}
			if j.perm() {
				j.perms = make([]*trigene.PermScores, wj.Tiles)
				for i, raw := range wj.Perms {
					if i >= wj.Tiles || len(raw) == 0 {
						continue
					}
					var ps trigene.PermScores
					if err := json.Unmarshal(raw, &ps); err == nil {
						j.perms[i] = &ps
					}
				}
			}
			j.grantee = make(map[int]granteeRef, len(wj.Grantees))
			for _, g := range wj.Grantees {
				j.grantee[g.Tile] = granteeRef{worker: g.Worker, seq: g.Seq}
			}
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
	}
	return nil
}

// exportLocked snapshots the full coordinator state.
func (c *Coordinator) exportLocked() walSnapshot {
	snap := walSnapshot{Seq: c.seq, Jobs: make([]walJob, 0, len(c.order))}
	for _, id := range c.order {
		j := c.jobs[id]
		wj := walJob{
			ID:              j.id,
			Name:            j.name,
			Spec:            j.spec,
			Tiles:           j.tiles,
			State:           j.state,
			Err:             j.err,
			SHA:             j.datasetSHA,
			SNPs:            j.snps,
			Samples:         j.samples,
			SubmittedUnixNs: j.submitted.UnixNano(),
		}
		wj.LeaseSeq, wj.TileStates = j.leases.Export()
		if !j.finished.IsZero() {
			wj.FinishedUnixNs = j.finished.UnixNano()
		}
		if j.result != nil {
			wj.Result, _ = json.Marshal(j.result)
		}
		if j.state == StateRunning {
			wj.Reports = make([]json.RawMessage, j.tiles)
			for i, rep := range j.reports {
				if rep != nil {
					wj.Reports[i], _ = json.Marshal(rep)
				}
			}
			wj.ScreenTiles = j.screenTiles
			if j.screenTiles > 0 {
				wj.Screens = make([]json.RawMessage, j.screenTiles)
				for i, sc := range j.screens {
					if sc != nil {
						wj.Screens[i], _ = json.Marshal(sc)
					}
				}
			}
			if j.perm() {
				wj.Perms = make([]json.RawMessage, j.tiles)
				for i, ps := range j.perms {
					if ps != nil {
						wj.Perms[i], _ = json.Marshal(ps)
					}
				}
			}
			wj.Grantees = make([]walGrantee, 0, len(j.grantee))
			for tile, g := range j.grantee {
				wj.Grantees = append(wj.Grantees, walGrantee{Tile: tile, Worker: g.worker, Seq: g.seq})
			}
			sort.Slice(wj.Grantees, func(a, b int) bool { return wj.Grantees[a].Tile < wj.Grantees[b].Tile })
		}
		snap.Jobs = append(snap.Jobs, wj)
	}
	return snap
}

// journalLocked appends one record to the journal buffer. It is a
// no-op for in-memory coordinators and during replay. Append errors
// are logged, not returned: the in-memory transition has already
// happened, and the callers that must not acknowledge un-durable
// state catch the problem in commit.
func (c *Coordinator) journalLocked(rec walRecord) {
	if c.log == nil || c.replaying {
		return
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		err = c.log.Append(raw)
	}
	if err != nil {
		c.cfg.Logger.Error("wal: journaling failed", "type", rec.T, "error", err)
	}
	c.journaled++
}

// journalJobLocked journals a transition of j that clients can observe
// and moves j.pos to it, so whoever answers for the job commits that
// far first.
func (c *Coordinator) journalJobLocked(j *job, rec walRecord) {
	c.journalLocked(rec)
	j.pos = c.journaled
}

// commit returns once the journal is durable up to position pos. It is
// called without c.mu. Whoever gets syncMu runs a group commit for
// everything journaled so far; the callers that queued behind it
// meanwhile mostly find their record covered when their turn comes, and
// the first that does not runs the next. A failed commit fails its own
// caller; the others try again themselves and report what they get.
func (c *Coordinator) commit(pos uint64) error {
	if pos <= c.durable.Load() {
		return nil
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	if pos <= c.durable.Load() {
		return nil
	}
	upTo, err := c.syncJournal()
	if err != nil {
		return err
	}
	c.durable.Store(upTo)
	return nil
}

// syncJournal is one group commit, run under syncMu by one goroutine at
// a time: the buffer is flushed under c.mu, where
// appends happen, the fsync runs outside it, and the journal is
// compacted into a snapshot when it has grown past SnapshotEvery
// records. It returns the position now durable.
func (c *Coordinator) syncJournal() (uint64, error) {
	c.mu.Lock()
	upTo := c.journaled
	compact := c.log.AppendedSinceSnapshot() >= c.cfg.SnapshotEvery
	err := c.log.Flush()
	c.mu.Unlock()
	if err == nil {
		err = c.log.Fsync()
	}
	if err != nil {
		return 0, err
	}
	c.cm.commitRecords.Observe(float64(upTo - c.durable.Load()))
	if compact {
		c.mu.Lock()
		// The snapshot holds every transition applied so far, journaled
		// or not yet flushed, so all of them are durable with it. A
		// failed compaction only costs replay time: the journal is
		// intact.
		if err := c.snapshotLocked(); err != nil {
			c.cfg.Logger.Warn("wal: snapshot failed", "error", err)
		} else {
			upTo = c.journaled
		}
		c.mu.Unlock()
	}
	return upTo, nil
}

// snapshotLocked compacts the current state into a snapshot, resetting
// the journal.
func (c *Coordinator) snapshotLocked() error {
	state, err := json.Marshal(c.exportLocked())
	if err != nil {
		return fmt.Errorf("cluster: encoding snapshot: %w", err)
	}
	return c.log.WriteSnapshot(state)
}

// journalFinishLocked records a job leaving StateRunning, carrying the
// merged result for done jobs. Called from finishLocked, so every
// finish path — merge, deterministic failure, cancel, deadline,
// attempt exhaustion — journals identically.
func (c *Coordinator) journalFinishLocked(j *job) {
	if c.log == nil || c.replaying {
		return
	}
	rec := walRecord{T: recFinish, Job: j.id, State: j.state, Err: j.err, UnixNs: j.finished.UnixNano()}
	if j.result != nil {
		rec.Result, _ = json.Marshal(j.result)
	}
	c.journalJobLocked(j, rec)
}

// packPath is where a dataset with the given content hash lives.
func (c *Coordinator) packPath(sha string) string {
	return filepath.Join(c.cfg.StateDir, "packs", sha+".tpack")
}

// writePack stores a dataset content-addressed (atomic rename, file
// and directory fsynced). An existing pack under the same hash is the
// same dataset; resubmissions cost nothing.
func (c *Coordinator) writePack(sha string, data []byte) error {
	path := c.packPath(sha)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, sha+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = fsyncDir(dir)
	}
	return err
}

// gcPacksLocked deletes packs no running job references — finished
// jobs released their datasets, so after recovery their packs are
// orphans.
func (c *Coordinator) gcPacksLocked() {
	dir := filepath.Join(c.cfg.StateDir, "packs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	needed := make(map[string]bool)
	for _, id := range c.order {
		if j := c.jobs[id]; j.state == StateRunning {
			needed[j.datasetSHA+".tpack"] = true
		}
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tpack") && !needed[e.Name()] {
			os.Remove(filepath.Join(dir, e.Name()))
			c.cfg.Logger.Info("pack store: collected orphan", "pack", e.Name())
		}
	}
}

// fsyncDir makes a rename inside dir durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
