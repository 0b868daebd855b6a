package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trigene"
	"trigene/internal/obs"
	"trigene/internal/sched"
	"trigene/internal/wal"
)

// coordinatorProxy fronts a durable coordinator with a stable URL so a
// test can crash and replace the backend without disturbing clients or
// workers (which see the outage as transient transport errors, exactly
// like a real restart).
type coordinatorProxy struct {
	mu sync.RWMutex
	co *Coordinator
}

func (p *coordinatorProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The read lock is held for the whole request, so crash() (write
	// lock) doubles as a barrier: once it returns, no request is still
	// executing against the abandoned coordinator.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.co == nil {
		http.Error(w, "coordinator down", http.StatusServiceUnavailable)
		return
	}
	p.co.ServeHTTP(w, r)
}

// crash abandons the current coordinator WITHOUT Close — the SIGKILL
// analog: journal records still sitting in the append buffer die with
// the process, only fsynced state survives on disk.
func (p *coordinatorProxy) crash() {
	p.mu.Lock()
	p.co = nil
	p.mu.Unlock()
}

// resume recovers a fresh coordinator from cfg.StateDir and routes
// traffic to it.
func (p *coordinatorProxy) resume(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	co, err := Recover(cfg)
	if err != nil {
		t.Fatalf("recovering from %s: %v", cfg.StateDir, err)
	}
	p.mu.Lock()
	p.co = co
	p.mu.Unlock()
	return co
}

// newDurableCluster recovers a coordinator from cfg.StateDir behind a
// crashable proxy and returns a fast-polling client for it.
func newDurableCluster(t *testing.T, cfg Config) (*Client, *coordinatorProxy, *Coordinator) {
	t.Helper()
	p := &coordinatorProxy{}
	co := p.resume(t, cfg)
	srv := httptest.NewServer(p)
	t.Cleanup(func() {
		srv.Close()
		p.mu.Lock()
		if p.co != nil {
			p.co.Close()
		}
		p.mu.Unlock()
	})
	cl := NewClient(srv.URL)
	cl.Poll = 5 * time.Millisecond
	return cl, p, co
}

// completeTile computes one granted tile exactly as a worker would —
// the grant's spec plus the tile shard — and posts the result.
func completeTile(t *testing.T, ctx context.Context, cl *Client, sess *trigene.Session, g LeaseGrant, tg TileGrant) bool {
	t.Helper()
	opts, err := g.Spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Search(ctx, append(opts, trigene.WithShard(tg.Tile, g.Tiles))...)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := cl.complete(ctx, tg.Token, rep)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// TestDurableRecoveryMidJob drives a crash deterministically with an
// injected clock: a job with one completed tile, one live lease and a
// queued second job is SIGKILLed and recovered. The completed tile
// stays done (its duplicate is discarded), the surviving worker renews
// and completes under its pre-crash token, the remaining tiles issue
// fresh, the queued job re-queues, and both merged Reports are
// bit-exact with uninterrupted runs — across a second restart too.
func TestDurableRecoveryMidJob(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var mu sync.Mutex
	now := time.Unix(2000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	ttl := 10 * time.Second
	cfg := Config{LeaseTTL: ttl, Now: clock, StateDir: t.TempDir()}
	cl, proxy, _ := newDurableCluster(t, cfg)

	spec := trigene.SearchSpec{TopK: 4, Workers: 1}
	const tiles = 4
	id, err := cl.Submit(ctx, mx, spec, tiles, "crashy")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, mx, trigene.SearchSpec{Order: 2, TopK: 3, Workers: 1}, 2, "queued")
	if err != nil {
		t.Fatal(err)
	}

	// survivor completes one tile (fsynced, durable); doomed holds a
	// live lease the completion's sync also made durable.
	gs, ok, err := cl.lease(ctx, LeaseRequest{Worker: "survivor"})
	if err != nil || !ok {
		t.Fatalf("survivor lease: ok=%v err=%v", ok, err)
	}
	gd, ok, err := cl.lease(ctx, LeaseRequest{Worker: "doomed"})
	if err != nil || !ok {
		t.Fatalf("doomed lease: ok=%v err=%v", ok, err)
	}
	if !completeTile(t, ctx, cl, sess, gs, gs.Granted[0]) {
		t.Fatal("survivor completion discarded")
	}

	proxy.crash()
	co2 := proxy.resume(t, cfg)

	// The recovered job: the completed tile survived, the queued job is
	// back in line, and the running job's dataset reloaded from the
	// pack store bit-exactly.
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Done != 1 || st.Tiles != tiles || st.Leased != 1 {
		t.Fatalf("recovered status: %+v", st)
	}
	if st, err := cl.Status(ctx, queued); err != nil || st.State != StateRunning || st.Done != 0 {
		t.Fatalf("queued job after recovery: %+v, %v", st, err)
	}
	raw, err := cl.dataset(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := trigene.ReadPack(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.DatasetHash() != sess.DatasetHash() {
		t.Fatalf("recovered dataset hash %.12s…, want %.12s…", reloaded.DatasetHash(), sess.DatasetHash())
	}
	if _, err := os.Stat(co2.packPath(sess.DatasetHash())); err != nil {
		t.Fatalf("running job's pack missing after recovery: %v", err)
	}

	// Exactly-once across the restart: re-posting the already-counted
	// tile is discarded, not re-merged.
	if acc, err := cl.complete(ctx, gs.Token, &trigene.Report{}); err != nil || acc {
		t.Fatalf("duplicate completion after recovery: accepted=%v err=%v", acc, err)
	}
	// The surviving holder's lease was restored: it renews and
	// completes under the pre-crash token.
	if err := cl.renewOne(ctx, gd.Token, RenewRequest{Worker: "doomed"}); err != nil {
		t.Fatalf("renewing restored lease: %v", err)
	}
	if !completeTile(t, ctx, cl, sess, gd, gd.Granted[0]) {
		t.Fatal("restored-lease completion discarded")
	}

	// The remaining two tiles issue fresh; the queued job follows FIFO
	// (nothing from it until the first job is fully leased).
	var fromFirst, fromSecond int
	for {
		g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "survivor"})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		switch g.Job {
		case id:
			if fromSecond > 0 {
				t.Fatalf("FIFO violated: job %s granted after %s started", id, queued)
			}
			fromFirst += len(g.Granted)
		case queued:
			fromSecond += len(g.Granted)
		default:
			t.Fatalf("grant from unexpected job %s", g.Job)
		}
		for _, tg := range g.Granted {
			if !completeTile(t, ctx, cl, sess, g, tg) {
				t.Fatalf("tile %d of %s discarded", tg.Tile, g.Job)
			}
		}
	}
	if fromFirst != tiles-2 || fromSecond != 2 {
		t.Errorf("post-recovery grants: %d from %s (want %d) and %d from %s (want 2)",
			fromFirst, id, tiles-2, fromSecond, queued)
	}

	remote, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Search(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "recovered job", remote, local)

	remoteQ, err := cl.Wait(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	localQ, err := sess.Search(ctx, trigene.WithOrder(2), trigene.WithTopK(3), trigene.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "re-queued job", remoteQ, localQ)

	// Finished results are durable too: a second crash loses nothing,
	// and the recovered pack store keeps the one dataset the retained
	// finished jobs name, for submissions by reference.
	proxy.crash()
	proxy.resume(t, cfg)
	again, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "result after second restart", again, local)
	if got := packNames(t, cfg.StateDir); !reflect.DeepEqual(got, []string{sess.DatasetHash() + ".tpack"}) {
		t.Errorf("pack store after all jobs finished holds %v, want the retained jobs' one dataset", got)
	}
}

// packNames lists the pack store's files.
func packNames(t *testing.T, stateDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(stateDir, "packs"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDurableRecoveryBackendParity is the acceptance gate for
// durability: for every backend the shard-parity tests cover, a job
// with one pre-crash completed tile finishes after a SIGKILL and
// restart with a merged Report bit-exact with the uninterrupted local
// run — the journaled tile report round-trips exactly.
func TestDurableRecoveryBackendParity(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cases := []struct {
		name string
		spec trigene.SearchSpec
	}{
		{"cpu/order2", trigene.SearchSpec{Order: 2, TopK: 6, Workers: 2}},
		{"cpu/order3", trigene.SearchSpec{Order: 3, TopK: 6, Workers: 2}},
		{"cpu/order4", trigene.SearchSpec{Order: 4, TopK: 6, Workers: 2}},
		{"cpu/order3-V3F", trigene.SearchSpec{Order: 3, TopK: 6, Approach: "V3F", Workers: 2}},
		{"gpusim/order3", trigene.SearchSpec{Backend: "gpusim:GN1", TopK: 6}},
		{"baseline/order3", trigene.SearchSpec{Backend: "baseline", TopK: 6, Workers: 2}},
		{"hetero/order3", trigene.SearchSpec{Backend: "hetero", TopK: 6, Workers: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{LeaseTTL: 10 * time.Second, StateDir: t.TempDir()}
			cl, proxy, _ := newDurableCluster(t, cfg)
			const tiles = 3
			id, err := cl.Submit(ctx, mx, tc.spec, tiles, tc.name)
			if err != nil {
				t.Fatal(err)
			}
			g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "pre"})
			if err != nil || !ok {
				t.Fatalf("pre-crash lease: ok=%v err=%v", ok, err)
			}
			doneTile := g.Granted[0].Tile
			if !completeTile(t, ctx, cl, sess, g, g.Granted[0]) {
				t.Fatal("pre-crash completion discarded")
			}

			proxy.crash()
			proxy.resume(t, cfg)

			for {
				g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "post"})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for _, tg := range g.Granted {
					if tg.Tile == doneTile {
						t.Fatalf("completed tile %d re-issued after recovery", tg.Tile)
					}
					completeTile(t, ctx, cl, sess, g, tg)
				}
			}
			remote, err := cl.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := tc.spec.Options()
			if err != nil {
				t.Fatal(err)
			}
			local, err := sess.Search(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, tc.name, remote, local)
		})
	}
}

// TestDurableRecoversVersion1Packs: a version 1 upload is held as the
// version 2 pack of its genotypes, under the same content hash. A state
// directory from before the .tpack went to version 2 holds version 1
// packs, stored as uploaded: with one whose planes disagree with its
// genotypes put in the pack store in its place, a restarted coordinator
// recovers the job on it, and the job's Report is bit-exact with the
// local search of the genotypes.
func TestDurableRecoversVersion1Packs(t *testing.T) {
	tampered, mx := tamperedV1(t)
	local := sessionFor(t, mx)
	ctx := context.Background()
	cfg := Config{LeaseTTL: 10 * time.Second, StateDir: t.TempDir()}
	cl, proxy, co := newDurableCluster(t, cfg)
	spec := trigene.SearchSpec{Order: 3, TopK: 6, Workers: 2}
	var resp SubmitResponse
	if err := cl.do(ctx, http.MethodPost, "/v1/jobs", SubmitRequest{Name: "v1", Spec: spec, Tiles: 3, Dataset: tampered}, &resp); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := local.WritePack(&v2); err != nil {
		t.Fatal(err)
	}
	path := co.packPath(local.DatasetHash())
	held, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(held, v2.Bytes()) {
		t.Fatalf("pack store does not hold the version 1 upload as its version 2 pack (err %v, %d bytes, want %d)", err, len(held), v2.Len())
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	proxy.crash()
	proxy.resume(t, cfg)
	startWorkers(t, cl, 2)
	got, err := cl.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Search(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "recovered version 1 pack", got, want)
}

// TestDurableCrashWithWorkers is the integration path: live workers,
// real clock, coordinator SIGKILLed mid-job and recovered while the
// workers keep hammering the same URL. The job converges to the
// bit-exact Report, and no tile completed before the crash is ever
// granted again.
func TestDurableCrashWithWorkers(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 120, Samples: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := trigene.SearchSpec{TopK: 5, Workers: 1}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Search(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{LeaseTTL: 250 * time.Millisecond, StateDir: t.TempDir()}
	cl, proxy, co1 := newDurableCluster(t, cfg)
	startWorkers(t, cl, 2)
	const tiles = 4
	id, err := cl.Submit(ctx, mx, spec, tiles, "crash-live")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no tile completed before the crash window")
		}
		time.Sleep(time.Millisecond)
	}

	proxy.crash()
	// crash() barriers on in-flight requests, so co1 is quiescent: read
	// which tiles its clients saw acknowledged (every acked completion
	// was fsynced).
	ackedDone := map[int]int{} // tile -> attempts
	co1.mu.Lock()
	if j := co1.jobs[id]; j != nil {
		_, states := j.leases.Export()
		for tile, ts := range states {
			if ts.State == sched.TileStateDone {
				ackedDone[tile] = ts.Attempts
			}
		}
	}
	co1.mu.Unlock()
	if len(ackedDone) == 0 {
		t.Fatal("status saw a completed tile but the lease table has none")
	}

	co2 := proxy.resume(t, cfg)
	co2.mu.Lock()
	j := co2.jobs[id]
	if j == nil {
		co2.mu.Unlock()
		t.Fatal("job lost in recovery")
	}
	_, states := j.leases.Export()
	co2.mu.Unlock()
	for tile, attempts := range ackedDone {
		if states[tile].State != sched.TileStateDone {
			t.Errorf("tile %d was acked done before the crash but recovered %v", tile, states[tile].State)
		}
		if states[tile].Attempts != attempts {
			t.Errorf("tile %d recovered with %d attempts, want %d", tile, states[tile].Attempts, attempts)
		}
	}

	remote, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "crash with live workers", remote, local)

	// Completed-before-crash tiles were never re-executed: their
	// attempt counters are untouched by the post-crash run.
	co2.mu.Lock()
	j = co2.jobs[id]
	_, final := j.leases.Export()
	co2.mu.Unlock()
	for tile, attempts := range ackedDone {
		if final[tile].Attempts != attempts {
			t.Errorf("tile %d re-granted after recovery: %d attempts, want %d", tile, final[tile].Attempts, attempts)
		}
	}
}

// TestDurableSnapshotCompactionAndRetention: snapshots bound the
// journal (generation advances), recovery reproduces the retention
// eviction exactly, and retained results stay bit-exact.
func TestDurableSnapshotCompactionAndRetention(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cfg := Config{LeaseTTL: 5 * time.Second, Retain: 2, SnapshotEvery: 4, StateDir: t.TempDir()}
	cl, proxy, _ := newDurableCluster(t, cfg)
	startWorkers(t, cl, 2)

	spec := trigene.SearchSpec{TopK: 3, Workers: 1}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := cl.Submit(ctx, mx, spec, 2, "ret")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	proxy.crash()
	co2 := proxy.resume(t, cfg)
	if co2.log.Generation() == 0 {
		t.Error("journal never compacted despite SnapshotEvery=4")
	}
	if matches, _ := filepath.Glob(filepath.Join(cfg.StateDir, "journal-*.wal")); len(matches) != 1 {
		t.Errorf("journal files after compaction: %v", matches)
	}
	if _, err := os.Stat(filepath.Join(cfg.StateDir, "snapshot.snap")); err != nil {
		t.Errorf("snapshot missing: %v", err)
	}

	jobs, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want the 2 retained", len(jobs))
	}
	if _, err := cl.Status(ctx, ids[0]); err == nil {
		t.Error("evicted job resurrected by recovery")
	}
	local, err := sess.Search(ctx, trigene.WithTopK(3), trigene.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		rep, err := cl.Result(ctx, id)
		if err != nil {
			t.Fatalf("retained job %s lost its result: %v", id, err)
		}
		reportsEqual(t, "retained "+id, rep, local)
	}

	// A fresh submission on the recovered coordinator must not reuse a
	// replayed job ID.
	id, err := cl.Submit(ctx, mx, spec, 2, "after")
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if id == old {
			t.Fatalf("recovered coordinator re-minted job ID %s", id)
		}
	}
	if _, err := cl.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCompactionWaitsForJournalBytes drives the compaction rule
// by hand, one request at a time, with the retained finished jobs making
// each snapshot large: the journal is still compacted (the generation
// advances), no snapshot is written before the journal holds as many
// bytes as the previous snapshot (read from the wal series, so a commit
// that SnapshotEvery alone would have compacted is seen to wait), and a
// crash recovers the same job list with bit-identical results.
func TestDurableCompactionWaitsForJournalBytes(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()

	const snapshotEvery = 4
	cfg := Config{LeaseTTL: time.Hour, SnapshotEvery: snapshotEvery, StateDir: t.TempDir()}
	cl, proxy, co := newDurableCluster(t, cfg)
	reg := obs.NewRegistry()
	co.Instrument(reg)
	generation := func() uint64 {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.log.Generation()
	}
	gen0 := generation()

	// Each request runs alone, so whatever it appends precedes its
	// commit, and the journal a snapshot cut is the journal before the
	// request plus the framed bytes appended during it.
	var snapshots, deferred, sinceSnap int
	probe := func(commits bool, do func()) {
		t.Helper()
		before := scrapeRegistry(t, reg)
		do()
		after := scrapeRegistry(t, reg)
		appends := after["trigene_wal_appends_total"] - before["trigene_wal_appends_total"]
		framed := after["trigene_wal_append_bytes_total"] - before["trigene_wal_append_bytes_total"] + 8*appends
		sinceSnap += int(appends)
		switch n := after["trigene_wal_snapshots_total"] - before["trigene_wal_snapshots_total"]; {
		case n > 1:
			t.Fatalf("one request wrote %v snapshots", n)
		case n == 1:
			if !commits {
				t.Fatal("a request that commits nothing wrote a snapshot")
			}
			journal, last := before["trigene_wal_journal_bytes"]+framed, before["trigene_wal_snapshot_bytes"]
			if journal < last {
				t.Errorf("snapshot written over a %v-byte journal, smaller than the previous %v-byte snapshot", journal, last)
			}
			if after["trigene_wal_journal_bytes"] != 0 {
				t.Fatalf("journal holds %v bytes after a snapshot ended the request", after["trigene_wal_journal_bytes"])
			}
			snapshots++
			sinceSnap = 0
		case commits && sinceSnap >= snapshotEvery:
			deferred++
		}
	}

	const jobs, tiles = 6, 8
	var ids []string
	for i := 0; i < jobs; i++ {
		var id string
		probe(true, func() {
			var err error
			id, err = cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2 + i, Workers: 1}, tiles, "compact-"+strconv.Itoa(i))
			if err != nil {
				t.Fatal(err)
			}
		})
		ids = append(ids, id)
		for {
			var g LeaseGrant
			var ok bool
			probe(false, func() {
				var err error
				if g, ok, err = cl.lease(ctx, LeaseRequest{Worker: "hand"}); err != nil {
					t.Fatal(err)
				}
			})
			if !ok {
				break
			}
			for _, tg := range g.Granted {
				probe(true, func() {
					if !completeTile(t, ctx, cl, sess, g, tg) {
						t.Fatalf("completion of tile %d discarded", tg.Tile)
					}
				})
			}
		}
	}
	if generation() == gen0 || snapshots == 0 {
		t.Fatalf("journal never compacted: generation %d → %d, %d snapshots", gen0, generation(), snapshots)
	}
	if deferred == 0 {
		t.Error("no commit waited for journal bytes: the test does not reach the byte rule")
	}
	t.Logf("%d snapshots, %d commits past SnapshotEvery deferred", snapshots, deferred)

	before, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string][]byte)
	for _, id := range ids {
		rep, err := cl.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if results[id], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
	}

	proxy.crash()
	proxy.resume(t, cfg)
	after, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != jobs || !reflect.DeepEqual(after, before) {
		t.Fatalf("recovered job list differs:\n got %+v\nwant %+v", after, before)
	}
	for i, id := range ids {
		rep, err := cl.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, results[id]) {
			t.Errorf("job %s: recovered result differs:\n got %s\nwant %s", id, raw, results[id])
		}
		local, err := sess.Search(ctx, trigene.WithTopK(2+i), trigene.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "recovered "+id, rep, local)
	}
}

// scrapeRegistry reads every series of the registry's exposition into a
// map keyed by the series as exposed (name and labels).
func scrapeRegistry(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	for _, line := range strings.Split(expose(reg), "\n") {
		at := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || at < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[at+1:], 64)
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		series[line[:at]] = v
	}
	return series
}

// TestDurableDeadlineSurvivesRestart: a job's wall-clock budget is
// measured from its durable submission instant, so a restart does not
// reset the deadline.
func TestDurableDeadlineSurvivesRestart(t *testing.T) {
	mx := plantedMatrix(t)
	ctx := context.Background()

	var mu sync.Mutex
	now := time.Unix(3000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	cfg := Config{LeaseTTL: 10 * time.Second, Now: clock, StateDir: t.TempDir()}
	cl, proxy, _ := newDurableCluster(t, cfg)
	id, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2, DeadlineMillis: 5000}, 2, "budgeted")
	if err != nil {
		t.Fatal(err)
	}

	proxy.crash()
	mu.Lock()
	now = now.Add(6 * time.Second)
	mu.Unlock()
	proxy.resume(t, cfg)

	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state after restart past deadline = %q, want failed", st.State)
	}
}

// TestDurableLegacyEnergyBudgetSpec: releases with an energy budget
// option submitted and journaled specs carrying "energyBudgetWatts",
// always beside "autoTune": true. Such a spec still decodes — from a
// journal written by such a release, and at the submit door — with both
// keys ignored, and runs untuned: the merged Report equals the local
// search.
func TestDurableLegacyEnergyBudgetSpec(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	const legacySpec = `{"topK":4,"workers":1,"autoTune":true,"energyBudgetWatts":45}`
	want := trigene.SearchSpec{TopK: 4, Workers: 1}
	local, err := sess.Search(ctx, trigene.WithTopK(4), trigene.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	finish := func(t *testing.T, cl *Client, id string) {
		t.Helper()
		st, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Spec != want {
			t.Errorf("decoded spec %+v, want %+v", st.Spec, want)
		}
		for {
			g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w"})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for _, tg := range g.Granted {
				completeTile(t, ctx, cl, sess, g, tg)
			}
		}
		remote, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "legacy spec", remote, local)
	}

	t.Run("journaled", func(t *testing.T) {
		cfg := Config{LeaseTTL: 10 * time.Second, StateDir: t.TempDir()}
		if err := os.MkdirAll(filepath.Join(cfg.StateDir, "packs"), 0o755); err != nil {
			t.Fatal(err)
		}
		var pack bytes.Buffer
		if err := sess.WritePack(&pack); err != nil {
			t.Fatal(err)
		}
		sha := sess.DatasetHash()
		if err := os.WriteFile(filepath.Join(cfg.StateDir, "packs", sha+".tpack"), pack.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(cfg.StateDir)
		if err != nil {
			t.Fatal(err)
		}
		rec := fmt.Sprintf(`{"t":"submit","job":"j1","name":"legacy","spec":%s,"tiles":3,"sha":%q,"snps":%d,"samples":%d,"ns":1000}`,
			legacySpec, sha, sess.SNPs(), sess.Samples())
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		cl, _, _ := newDurableCluster(t, cfg)
		finish(t, cl, "j1")
	})

	t.Run("submitted", func(t *testing.T) {
		cl, _, _ := newDurableCluster(t, Config{LeaseTTL: 10 * time.Second, StateDir: t.TempDir()})
		var data bytes.Buffer
		if err := trigene.WriteBinary(&data, mx); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(SubmitRequest{Name: "legacy", Tiles: 3, Dataset: data.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.Replace(body, []byte(`"spec":{}`), []byte(`"spec":`+legacySpec), 1)
		if !bytes.Contains(body, []byte("energyBudgetWatts")) {
			t.Fatal("test setup: spec not replaced")
		}
		resp, err := http.Post(cl.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: %s, %v", resp.Status, err)
		}
		finish(t, cl, sub.ID)
	})
}

// TestDurableRemovedApproachSpec: releases whose cpu backend still ran
// V1..V4 accepted and journaled cpu specs pinning one of them. Such a
// spec is refused at the submit door with 400. One a journal already
// holds replays, and its job fails with an error naming the approach
// once a worker leases it: it neither hangs nor runs as V4F, whose
// block-triple space is not the one a V3 job's tiles were cut in.
func TestDurableRemovedApproachSpec(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	const removedSpec = `{"topK":4,"workers":1,"approach":"V3"}`

	t.Run("journaled", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cfg := Config{LeaseTTL: 10 * time.Second, StateDir: t.TempDir()}
		if err := os.MkdirAll(filepath.Join(cfg.StateDir, "packs"), 0o755); err != nil {
			t.Fatal(err)
		}
		var pack bytes.Buffer
		if err := sess.WritePack(&pack); err != nil {
			t.Fatal(err)
		}
		sha := sess.DatasetHash()
		if err := os.WriteFile(filepath.Join(cfg.StateDir, "packs", sha+".tpack"), pack.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(cfg.StateDir)
		if err != nil {
			t.Fatal(err)
		}
		rec := fmt.Sprintf(`{"t":"submit","job":"j1","name":"removed","spec":%s,"tiles":3,"sha":%q,"snps":%d,"samples":%d,"ns":1000}`,
			removedSpec, sha, sess.SNPs(), sess.Samples())
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		cl, _, _ := newDurableCluster(t, cfg)
		st, err := cl.Status(ctx, "j1")
		if err != nil {
			t.Fatal(err)
		}
		if st.Spec.Approach != "V3" || st.State == StateFailed {
			t.Fatalf("replayed job: %+v", st)
		}
		startWorkers(t, cl, 1)
		if _, err := cl.Wait(ctx, "j1"); err == nil {
			t.Fatal("a job pinning V3 on the cpu backend completed")
		}
		if st, err = cl.Status(ctx, "j1"); err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed || !strings.Contains(st.Error, `"V3"`) || st.Done != 0 {
			t.Errorf("job status %+v, want failed with no tile done and an error naming V3", st)
		}
	})

	t.Run("submitted", func(t *testing.T) {
		cl, _, _ := newDurableCluster(t, Config{LeaseTTL: 10 * time.Second, StateDir: t.TempDir()})
		var data bytes.Buffer
		if err := trigene.WriteBinary(&data, mx); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(SubmitRequest{Name: "removed", Tiles: 3, Dataset: data.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.Replace(body, []byte(`"spec":{}`), []byte(`"spec":`+removedSpec), 1)
		if !bytes.Contains(body, []byte(`"approach":"V3"`)) {
			t.Fatal("test setup: spec not replaced")
		}
		resp, err := http.Post(cl.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit of a cpu V3 spec: %s, want 400", resp.Status)
		}
	})
}
