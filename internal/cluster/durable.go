// Durable coordinator state: a write-ahead journal plus snapshots
// (internal/wal) under Config.StateDir make every acknowledged state
// transition of the Coordinator survive a crash.
//
// The journal records the coordinator's state machine, not its bytes:
// one JSON record per transition — submit, grant, complete, release,
// finish — replayed in order on top of the latest snapshot. A search
// tile's complete record and snapshot slot hold its Report in the form
// it was posted in: the JSON object, or the base64 string of the binary
// form (tileReport, job.go). Datasets
// are deliberately kept out of the journal; they are content-addressed
// files under StateDir/packs/<sha256>.tpack, written (and fsynced)
// before the submit record that references them, and deleted when the
// last retained job that names them is evicted (dropPackLocked), or on
// recovery when no retained job does. A submission by reference reads
// the pack of a retained finished job back from there.
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
// sched.lease_ns per grant). For the same reason a grant of a job's
// next phase may follow a completion of the previous one that is not
// durable yet: what the closed phase pinned into it is recomputed
// identically from the re-executed tile.
//
// Replay policy. A complete record in the journal and a tile's slot in
// a snapshot go through the function a live result goes through
// (job.decode: the tile's kind decodes and validates the payload
// against the job), and what a phase's close computes is never stored —
// recovery closes every complete phase again from the recovered
// partials (advanceLocked). So replay accepts exactly what the live
// path accepts, and there is one rule for everything else, whatever the
// kind and whether the payload failed to decode or failed validation: a
// recovered completion that is refused fails its job, with an error
// naming the tile and the reason. Only a live result that passed the
// same check is ever journaled, so a refusal means the state directory
// was written by a release with another contract (a permutation range
// of another stream version, say) or edited; computing the tile afresh
// and merging it with that release's other partials would hide exactly
// that. A record that does not decode as a record at all (or names an
// unknown type) is skipped with a warning, as before: it says nothing
// about any job.
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

	// complete: the tile's payload, in the field its kind names (job.go).
	// What a phase's close computes is deliberately not journaled —
	// recovery recomputes it deterministically from the replayed payloads.
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
// snapshot, then journal replay, then what replay cannot express as
// records — closing the phases whose close the crash swallowed,
// reloading running jobs' datasets from the pack store, and collecting
// packs no retained job references. Ends by compacting the recovered
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
		// A phase whose last tile is journaled but whose close the crash
		// swallowed — what it pinned for the next phase, the merge before
		// a lost finish record — closes now, exactly as the uninterrupted
		// run would have.
		c.advanceLocked(j)
		if j.state != StateRunning {
			continue
		}
		// Running jobs on one dataset share one copy of it.
		held, _ := c.heldLocked(j.datasetSHA)
		if held.data == nil {
			var err error
			if held.data, err = os.ReadFile(c.packPath(j.datasetSHA)); err != nil {
				c.cfg.Logger.Error("dataset pack lost after recovery", "job", j.id, "error", err)
				c.finishLocked(j, StateFailed, fmt.Sprintf("dataset missing after recovery: %v", err))
				continue
			}
		}
		j.dataset = held.data
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
		j := newJob(rec)
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
		c.restoreLocked(j, rec.Tile, &TileResult{Report: rec.Report, Screen: rec.Screen, Perm: rec.Perm})
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
		j.finish(rec.State, rec.Err, time.Unix(0, rec.UnixNs))
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
		j := newJob(walRecord{Job: wj.ID, Name: wj.Name, Spec: &wj.Spec, Tiles: wj.Tiles, ScreenTiles: wj.ScreenTiles,
			SHA: wj.SHA, SNPs: wj.SNPs, Samples: wj.Samples, UnixNs: wj.SubmittedUnixNs})
		if wj.TileStates != nil {
			j.leases = sched.ImportLeaseTable(wj.LeaseSeq, wj.TileStates)
		}
		for _, g := range wj.Grantees {
			j.grantee[g.Tile] = granteeRef{worker: g.Worker, seq: g.Seq}
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
		if wj.State != StateRunning {
			c.applyLocked(walRecord{T: recFinish, Job: j.id, State: wj.State, Err: wj.Err, Result: wj.Result, UnixNs: wj.FinishedUnixNs})
			continue
		}
		for _, ph := range j.phases {
			slots := *ph.kind.slots(&wj)
			for tile := ph.base; tile < min(ph.end(), len(slots)) && j.state == StateRunning; tile++ {
				if raw := slots[tile]; len(raw) > 0 && string(raw) != "null" {
					var res TileResult
					*ph.kind.field(&res) = raw
					c.restoreLocked(j, tile, &res)
				}
			}
		}
	}
	return nil
}

// restoreLocked puts back one completed tile that recovery found — a
// replayed complete record or a snapshot slot — through the decode a
// live result passes, under the replay policy of this file's header.
func (c *Coordinator) restoreLocked(j *job, tile int, res *TileResult) {
	part, err := j.decode(tile, res)
	if err != nil {
		c.cfg.Logger.Error("recovered completion refused; failing the job", "job", j.id, "tile", tile, "error", err)
		c.finishLocked(j, StateFailed, fmt.Sprintf("recovered completion of tile %d refused: %v", tile, err))
		return
	}
	j.leases.RestoreDone(tile)
	j.partials[tile] = part
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
			// "reports" has a slot per lease unit in every running job,
			// whatever its kinds: it always had, and a snapshot's bytes do
			// not move. Every kind's array runs to the end of its phase.
			wj.Reports = make([]json.RawMessage, j.tiles)
			wj.ScreenTiles = j.screenTiles
			for _, ph := range j.phases {
				slots := ph.kind.slots(&wj)
				if len(*slots) < ph.end() {
					*slots = make([]json.RawMessage, ph.end())
				}
				for tile := ph.base; tile < ph.end(); tile++ {
					if part := j.partials[tile]; part != nil {
						(*slots)[tile], _ = json.Marshal(part)
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
// a time: the buffer is flushed under c.mu, where appends happen, the
// fsync runs outside it, and the journal is compacted into a snapshot
// when it has taken SnapshotEvery records and as many bytes as the last
// snapshot. It returns the position now durable.
func (c *Coordinator) syncJournal() (uint64, error) {
	c.mu.Lock()
	upTo := c.journaled
	// A snapshot re-encodes every retained job, finished ones included,
	// so the byte condition (the append-only-file rewrite rule) keeps
	// compaction to at most one snapshot byte written per journal byte.
	compact := c.log.AppendedSinceSnapshot() >= c.cfg.SnapshotEvery &&
		c.log.JournalBytes() >= c.log.SnapshotBytes()
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
		// compaction that fails before its snapshot is in place only
		// costs replay time: the journal is intact. One that fails after
		// leaves the log refusing writes, and every later commit fails.
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

// dropPackLocked deletes the pack of a dataset hash once nothing keeps
// it: no retained job names the hash and no submission has it pinned
// (a submission pins the hash before it writes or reads the pack outside
// the lock, and unpins it once its job names the hash, so a pack that
// writePack found in place is never deleted under it). It is a no-op on
// an in-memory coordinator and during replay, whose evictions may
// precede a later submit record of the same hash; recovery collects
// packs once the replay is done (gcPacksLocked). A delete a crash loses
// leaves an orphan that recovery collects.
func (c *Coordinator) dropPackLocked(sha string) {
	if c.log == nil || c.replaying || c.pins[sha] > 0 {
		return
	}
	if _, named := c.heldLocked(sha); named {
		return
	}
	if err := os.Remove(c.packPath(sha)); err == nil {
		c.cfg.Logger.Info("pack store: deleted a pack no retained job names", "pack", sha)
	}
}

// gcPacksLocked deletes packs no retained job references: orphans of
// evictions whose delete a crash lost, and of submissions that never
// committed.
func (c *Coordinator) gcPacksLocked() {
	dir := filepath.Join(c.cfg.StateDir, "packs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	needed := make(map[string]bool)
	for _, id := range c.order {
		needed[c.jobs[id].datasetSHA+".tpack"] = true
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tpack") && !needed[e.Name()] {
			os.Remove(filepath.Join(dir, e.Name()))
			c.cfg.Logger.Info("pack store: collected orphan", "pack", e.Name())
		}
	}
}

// packStoreBytes sums the sizes of the packs in the pack store.
func (c *Coordinator) packStoreBytes() int64 {
	entries, _ := os.ReadDir(filepath.Join(c.cfg.StateDir, "packs"))
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".tpack") {
			n += info.Size()
		}
	}
	return n
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
