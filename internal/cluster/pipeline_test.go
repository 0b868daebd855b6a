package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trigene"
	"trigene/internal/obs"
	"trigene/internal/sched"
	"trigene/internal/wal"
)

// paritySpec is the cpu/order3 case of TestClusterLoopbackParity: the
// reference the crash and batching tests below must reproduce bit for
// bit.
var paritySpec = trigene.SearchSpec{Order: 3, TopK: 6, Workers: 2}

func localReport(t *testing.T, sess *trigene.Session, spec trigene.SearchSpec) *trigene.Report {
	t.Helper()
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Search(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// leaseAll drains the queue as one measured worker and returns every
// grant it was given.
func leaseAll(t *testing.T, cl *Client, worker string) []LeaseGrant {
	t.Helper()
	var grants []LeaseGrant
	for {
		g, ok, err := cl.lease(context.Background(), LeaseRequest{Worker: worker, TilesPerSec: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return grants
		}
		grants = append(grants, g)
	}
}

// tileResults computes every tile of the grants exactly as a worker
// would — through the grant's kind — and returns the results in wire
// form, in grant order.
func tileResults(t testing.TB, sess *trigene.Session, grants []LeaseGrant) []TileResult {
	t.Helper()
	var results []TileResult
	for _, g := range grants {
		opts, err := g.Spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		kind := grantKind(&g)
		for _, tg := range g.Granted {
			out, err := kind.run(context.Background(), tileRun{w: &Worker{}, sess: sess, spec: &g.Spec, opts: opts, shard: g.shard(tg.Tile), binary: g.BinaryReports})
			if err != nil {
				t.Fatal(err)
			}
			res := TileResult{Token: tg.Token}
			if *kind.field(&res), err = json.Marshal(out); err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	return results
}

// expose renders a registry's Prometheus exposition.
func expose(reg *obs.Registry) string {
	var b strings.Builder
	reg.WriteTo(&b)
	return b.String()
}

func statuses(verdicts []TileStatus) string {
	parts := make([]string, len(verdicts))
	for i, v := range verdicts {
		parts[i] = v.Status
	}
	return strings.Join(parts, " ")
}

// fakeClock is an injected coordinator clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time { c.mu.Lock(); defer c.mu.Unlock(); return c.now }
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestBatchedCompletionPerToken: one done request carrying several
// results is answered token by token — a stale one (its tile re-issued
// mid-batch), fresh ones, one of an unknown job, one that does not
// decode — each accounted exactly once through the lease table, and a
// repeat of the whole batch changes nothing.
func TestBatchedCompletionPerToken(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	clock := &fakeClock{now: time.Unix(6000, 0)}
	ttl := 10 * time.Second
	cl, co := newTestCluster(t, Config{LeaseTTL: ttl, Now: clock.Now})
	reg := obs.NewRegistry()
	co.Instrument(reg)
	id, err := cl.Submit(ctx, mx, paritySpec, 4, "batched")
	if err != nil {
		t.Fatal(err)
	}
	results := tileResults(t, sess, leaseAll(t, cl, "holder"))
	if len(results) != 4 {
		t.Fatalf("holder was granted %d tiles, want all 4", len(results))
	}

	// Every lease expires; one tile is re-issued to another worker, which
	// makes the holder's token for it stale. The others stay the
	// holder's to complete (expired, not re-issued).
	clock.advance(ttl + time.Second)
	taker, ok, err := cl.lease(ctx, LeaseRequest{Worker: "taker"})
	if err != nil || !ok || len(taker.Granted) != 1 {
		t.Fatalf("re-issue: ok=%v err=%v grant=%+v", ok, err, taker)
	}
	var stale, fresh []TileResult
	for _, res := range results {
		if _, tile, _, _ := parseLeaseToken(res.Token); tile == taker.Tile {
			stale = append(stale, res)
		} else {
			fresh = append(fresh, res)
		}
	}
	batch := []TileResult{
		stale[0],
		fresh[0],
		fresh[1],
		{Token: "j99.0.1", Report: fresh[0].Report},
		{Token: fresh[2].Token, Report: json.RawMessage(`"not a report"`)},
	}
	for round, want := range []string{
		"discarded accepted accepted gone invalid",
		"discarded discarded discarded gone invalid",
	} {
		verdicts, err := cl.done(ctx, batch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := statuses(verdicts); got != want {
			t.Fatalf("round %d verdicts = %q, want %q (%+v)", round, got, want, verdicts)
		}
		for i, v := range verdicts {
			if v.Token != batch[i].Token {
				t.Errorf("round %d verdict %d names %s, want %s", round, i, v.Token, batch[i].Token)
			}
		}
	}
	if st, err := cl.Status(ctx, id); err != nil || st.Done != 2 || st.State != StateRunning {
		t.Fatalf("after the batch: %+v, %v", st, err)
	}

	// The re-issued holder and the refused tile finish the job; the
	// merge is the single-node Report.
	takerResults := tileResults(t, sess, []LeaseGrant{taker})
	verdicts, err := cl.done(ctx, []TileResult{takerResults[0], fresh[2]})
	if err != nil || statuses(verdicts) != "accepted accepted" {
		t.Fatalf("finishing batch: %v, %+v", err, verdicts)
	}
	remote, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "batched completions", remote, localReport(t, sess, paritySpec))

	// Three done requests carried 5 + 5 + 2 results.
	for _, line := range []string{"trigene_coord_completion_batch_count 3", "trigene_coord_completion_batch_sum 12"} {
		if !strings.Contains(expose(reg), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

// copyState copies a coordinator state directory, cutting its journal
// to keep bytes (negative: whole).
func copyState(t *testing.T, src string, keep int64) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".wal") && keep >= 0 {
			data = data[:keep]
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestBatchedCompletionCrashPoints injects a crash at every record
// boundary of a job's batched completions, for a job of every kind: the
// journal is cut before the first complete record, after each one, and
// after the finish record that follows the last (synced, response not
// yet sent). For the two-phase screened job that puts cuts inside stage
// 1, exactly between the last stage-1 complete and the first stage-2
// grant, and inside stage 2. Every cut recovers to exactly the tiles
// journaled before it, re-issues exactly the others once their restored
// leases lapse, and merges to the single-node result.
func TestBatchedCompletionCrashPoints(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	permSpec := trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: [][]int{{3, 9, 15}, {0, 1}}, Permutations: 90, Seed: 11}}
	localPerm, err := sess.PermutationTestAll(ctx, permSpec.Perm.SNPs, trigene.WithPermutations(90), trigene.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prefix        string // of the job's cutN subtests; the search job's keep their bare names
		spec          trigene.SearchSpec
		submit, tiles int // tiles asked for, lease units that makes
		check         func(t *testing.T, got *trigene.Report)
	}{
		{"", paritySpec, 5, 5, func(t *testing.T, got *trigene.Report) {
			reportsEqual(t, "recovered", got, localReport(t, sess, paritySpec))
		}},
		{"screened-", screenedSpec(), 3, 6, func(t *testing.T, got *trigene.Report) {
			want := localScreened(t, sess, screenedSpec())
			reportsEqual(t, "recovered", got, want)
			if got.Screen == nil || got.Screen.PairsScanned != want.Screen.PairsScanned || got.Screen.Threshold != want.Screen.Threshold {
				t.Errorf("recovered ScreenInfo %+v, want %+v", got.Screen, want.Screen)
			}
		}},
		{"perm-", permSpec, 4, 4, func(t *testing.T, got *trigene.Report) {
			if got.Perm == nil || len(got.Perm.Results) != len(localPerm) {
				t.Fatalf("recovered Perm block %+v, want %d results", got.Perm, len(localPerm))
			}
			for i, pc := range got.Perm.Results {
				if want := localPerm[i]; pc.Observed != want.Observed || pc.AsGoodOrBetter != want.AsGoodOrBetter || pc.PValue != want.PValue {
					t.Errorf("candidate %d: recovered %+v != local %+v", i, pc, *want)
				}
			}
		}},
	} {
		crashPoints(t, tc.prefix, mx, sess, tc.spec, tc.submit, tc.tiles, tc.check)
	}
}

// drain leases and completes, as one worker posting each round's results
// in one request, until the coordinator grants nothing more (a job of
// several phases opens the next when a round closes the last); it
// returns the tiles it was granted.
func drain(t *testing.T, cl *Client, sess *trigene.Session, worker string) map[int]bool {
	t.Helper()
	granted := map[int]bool{}
	for {
		grants := leaseAll(t, cl, worker)
		if len(grants) == 0 {
			return granted
		}
		results := tileResults(t, sess, grants)
		for _, g := range grants {
			for _, tg := range g.Granted {
				granted[tg.Tile] = true
			}
		}
		verdicts, err := cl.done(context.Background(), results)
		if err != nil || strings.Count(statuses(verdicts), TileAccepted) != len(results) {
			t.Fatalf("batched completion: %v, %+v", err, verdicts)
		}
	}
}

func crashPoints(t *testing.T, prefix string, mx *trigene.Matrix, sess *trigene.Session, spec trigene.SearchSpec, submit, tiles int, check func(*testing.T, *trigene.Report)) {
	ctx := context.Background()
	clock := &fakeClock{now: time.Unix(7000, 0)}
	ttl := 10 * time.Second
	cfg := Config{LeaseTTL: ttl, Now: clock.Now, StateDir: t.TempDir()}

	co, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co)
	cl := NewClient(srv.URL)
	if _, err := cl.Submit(ctx, mx, spec, submit, "crash-points"); err != nil {
		t.Fatal(err)
	}
	if granted := drain(t, cl, sess, "w"); len(granted) != tiles {
		t.Fatalf("granted %d tiles, want %d", len(granted), tiles)
	}
	srv.Close()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	// Locate the record boundaries: submit, then each phase's grants and
	// the complete records of its one request, in request order, and
	// finish.
	journal := filepath.Join(cfg.StateDir, "journal-0.wal")
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	const header = 12
	records, _ := wal.DecodeRecords(raw[header:])
	var cuts []int64 // cuts[k]: journal length holding k complete records
	var order []int  // tile of the k-th complete record
	off := int64(header)
	for _, rec := range records {
		var wr walRecord
		if err := json.Unmarshal(rec, &wr); err != nil {
			t.Fatal(err)
		}
		if wr.T == recComplete {
			if len(cuts) == 0 {
				cuts = append(cuts, off)
			}
			order = append(order, wr.Tile)
		}
		off += 8 + int64(len(rec))
		if wr.T == recComplete {
			cuts = append(cuts, off)
		}
	}
	if len(order) != tiles || len(cuts) != tiles+1 {
		t.Fatalf("journal holds %d complete records, want %d", len(order), tiles)
	}
	cuts = append(cuts, -1) // the whole journal: fsynced, response lost

	for k, keep := range cuts {
		t.Run(fmt.Sprintf("%scut%d", prefix, k), func(t *testing.T) {
			rcfg := cfg
			rcfg.StateDir = copyState(t, cfg.StateDir, keep)
			co, err := Recover(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			srv := httptest.NewServer(co)
			defer srv.Close()
			cl := NewClient(srv.URL)
			journaled := min(k, tiles)
			st, err := cl.Status(ctx, "j1")
			if err != nil {
				t.Fatal(err)
			}
			if st.Done != journaled {
				t.Fatalf("recovered %d done tiles, want the %d journaled before the cut", st.Done, journaled)
			}
			if wantState := map[bool]string{true: StateDone, false: StateRunning}[journaled == tiles]; st.State != wantState {
				t.Fatalf("recovered state %q, want %q", st.State, wantState)
			}
			// The restored leases lapse; exactly the un-journaled tiles
			// come out again, and completing them is accepted.
			clock.advance(ttl + time.Second)
			reissued := drain(t, cl, sess, "w2")
			if len(reissued) != tiles-journaled {
				t.Fatalf("re-issued tiles %v, want the %d cut off", reissued, tiles-journaled)
			}
			for _, tile := range order[journaled:] {
				if !reissued[tile] {
					t.Errorf("tile %d lost its complete record but was not re-issued", tile)
				}
			}
			got, err := cl.Result(ctx, "j1")
			if err != nil {
				t.Fatal(err)
			}
			check(t, got)
		})
	}
}

// TestJournalRecordFormat pins the journal's record encoding: batching
// changed who appends records and when they are synced, not what they
// are, so a journal written by the release before group commit replays
// under this one and the reverse. Likewise the one job abstraction
// changed how a job's state is held, not how a snapshot spells it: the
// records below, as the release before it journaled them, replay into
// the snapshot that release wrote, byte for byte, and importing that
// snapshot and exporting it again gives it back. A search tile's Report
// rests in the form it was posted in: a JSON object, or the binary form's
// base64 string. Either names its tile's shard, as every worker's Report
// does; one that covers no shard, or another, is refused
// (validateTileReport), so the release before the check's search record,
// whose hand-written Report named none, now fails its job.
func TestJournalRecordFormat(t *testing.T) {
	for _, tc := range []struct {
		rec  walRecord
		want string
	}{
		{walRecord{T: recGrant, Job: "j1", Tile: 3, Seq: 7, Attempt: 1, Worker: "w", UnixNs: 5},
			`{"t":"grant","job":"j1","tile":3,"seq":7,"attempt":1,"worker":"w","ns":5}`},
		{walRecord{T: recComplete, Job: "j1", Tile: 3, Seq: 7, Report: json.RawMessage(`{}`)},
			`{"t":"complete","job":"j1","tile":3,"seq":7,"report":{}}`},
		{walRecord{T: recComplete, Job: "j1", Seq: 7, Perm: json.RawMessage(`{}`)},
			`{"t":"complete","job":"j1","seq":7,"perm":{}}`},
		{walRecord{T: recComplete, Job: "j1", Tile: 1, Seq: 7, Screen: json.RawMessage(`{}`)},
			`{"t":"complete","job":"j1","tile":1,"seq":7,"screen":{}}`},
		{walRecord{T: recRelease, Job: "j1", Tile: 3, Seq: 7},
			`{"t":"release","job":"j1","tile":3,"seq":7}`},
		{walRecord{T: recFinish, Job: "j1", State: StateFailed, Err: "x", UnixNs: 5},
			`{"t":"finish","job":"j1","state":"failed","err":"x","ns":5}`},
	} {
		got, err := json.Marshal(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s record = %s, want %s", tc.rec.T, got, tc.want)
		}
	}

	const grants = `{"t":"grant","job":"j1","seq":1,"attempt":1,"worker":"w","ns":5000}
{"t":"grant","job":"j1","tile":1,"seq":2,"attempt":1,"worker":"w","ns":5000}
`
	const leased = `"grantees":[{"tile":0,"worker":"w","seq":1},{"tile":1,"worker":"w","seq":2}]`
	const screen = `{"snps":3,"best":[0.5,0.25,0],"seen":[true,true,false],"objective":"k2","pairs":1,"topPairs":[{"snps":[0,1],"score":0.25}],"topPairLimit":1,"durationNs":7}`
	const perm = `{"snps":[[0,1]],"objective":"k2","seed":5,"stream":2,"offset":4,"count":4,"observed":[1.5],"hits":[1]}`
	const report = `{"backend":"cpu","approach":"","objective":"k2","order":3,"best":{"snps":[0,1,2],"score":1.5},"topK":[{"snps":[0,1,2],"score":1.5}],"combinations":1,"elements":8,"durationNs":0,"elementsPerSec":0,"shard":{"index":1,"count":2,"lo":0,"hi":1,"space":"combination-ranks"}}`
	// binReport is report in the binary form a worker posts under a grant
	// that says BinaryReports.
	const binReport = `"AQNjcHUAAmsyBgAEAAECAAAAAAAA+D8BBAABAgAAAAAAAPg/AgAAAAAAACBAAAAAAAAAAAAAAQIEAAIRY29tYmluYXRpb24tcmFua3M="`
	var fromJSON, fromBinary tileReport
	if err := json.Unmarshal([]byte(report), &fromJSON); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(binReport), &fromBinary); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, fromJSON.Report), mustJSON(t, fromBinary.Report); a != b {
		t.Fatalf("binary report decodes to\n%s\nwant\n%s", b, a)
	}
	for _, tc := range []struct {
		name, journal, snapshot string
	}{
		{"screened job, stage 1 half done",
			`{"t":"submit","job":"j1","name":"s","spec":{"topK":2,"screen":{"maxSurvivors":3,"seedPairs":1}},"tiles":4,"screenTiles":2,"sha":"ab","snps":3,"samples":8,"ns":1000}
` + grants + `{"t":"complete","job":"j1","seq":1,"screen":` + screen + `}`,
			`{"seq":1,"jobs":[{"id":"j1","name":"s","spec":{"topK":2,"screen":{"maxSurvivors":3,"seedPairs":1}},"tiles":4,"state":"running","sha":"ab","snps":3,"samples":8,"leaseSeq":2,"tileStates":[{"s":2,"q":1,"d":5000,"a":1},{"s":1,"q":2,"d":5000,"a":1},{"s":0},{"s":0}],` + leased + `,"reports":[null,null,null,null],"screenTiles":2,"screens":[` + screen + `,null],"sub":1000}]}`},
		{"permutation job",
			`{"t":"submit","job":"j1","spec":{"perm":{"snps":[[0,1]],"permutations":8,"seed":5}},"tiles":2,"sha":"ab","snps":3,"samples":8,"ns":1000}
` + grants + `{"t":"complete","job":"j1","tile":1,"seq":2,"perm":` + perm + `}`,
			`{"seq":1,"jobs":[{"id":"j1","spec":{"perm":{"snps":[[0,1]],"permutations":8,"seed":5}},"tiles":2,"state":"running","sha":"ab","snps":3,"samples":8,"leaseSeq":2,"tileStates":[{"s":1,"q":1,"d":5000,"a":1},{"s":2,"q":2,"d":5000,"a":1}],` + leased + `,"reports":[null,null],"perms":[null,` + perm + `],"sub":1000}]}`},
		{"search job",
			`{"t":"submit","job":"j1","spec":{"topK":2},"tiles":2,"sha":"ab","snps":3,"samples":8,"ns":1000}
` + grants + `{"t":"complete","job":"j1","tile":1,"seq":2,"report":` + report + `}`,
			`{"seq":1,"jobs":[{"id":"j1","spec":{"topK":2},"tiles":2,"state":"running","sha":"ab","snps":3,"samples":8,"leaseSeq":2,"tileStates":[{"s":1,"q":1,"d":5000,"a":1},{"s":2,"q":2,"d":5000,"a":1}],` + leased + `,"reports":[null,` + report + `],"sub":1000}]}`},
		{"search job, binary report",
			`{"t":"submit","job":"j1","spec":{"topK":2},"tiles":2,"sha":"ab","snps":3,"samples":8,"ns":1000}
` + grants + `{"t":"complete","job":"j1","tile":1,"seq":2,"report":` + binReport + `}`,
			`{"seq":1,"jobs":[{"id":"j1","spec":{"topK":2},"tiles":2,"state":"running","sha":"ab","snps":3,"samples":8,"leaseSeq":2,"tileStates":[{"s":1,"q":1,"d":5000,"a":1},{"s":2,"q":2,"d":5000,"a":1}],` + leased + `,"reports":[null,` + binReport + `],"sub":1000}]}`},
	} {
		export := func(fill func(co *Coordinator)) string {
			t.Helper()
			co := NewCoordinator(Config{})
			co.mu.Lock()
			defer co.mu.Unlock()
			fill(co)
			out, err := json.Marshal(co.exportLocked())
			if err != nil {
				t.Fatal(err)
			}
			return string(out)
		}
		replayed := export(func(co *Coordinator) {
			for _, line := range strings.Split(tc.journal, "\n") {
				var rec walRecord
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatal(err)
				}
				co.applyLocked(rec)
			}
		})
		if replayed != tc.snapshot {
			t.Errorf("%s: journal replays into snapshot\n%s\nwant\n%s", tc.name, replayed, tc.snapshot)
		}
		imported := export(func(co *Coordinator) {
			if err := co.importSnapshotLocked([]byte(tc.snapshot)); err != nil {
				t.Fatal(err)
			}
		})
		if imported != tc.snapshot {
			t.Errorf("%s: snapshot imports and exports as\n%s\nwant\n%s", tc.name, imported, tc.snapshot)
		}
	}

	// The search job's record as the release before the door check wrote
	// it: its Report names no shard. Recovery now refuses it, from the
	// journal and from the snapshot alike, and fails the job.
	const shardless = `{"backend":"cpu","approach":"","objective":"k2","order":3,"best":{"snps":[0,1,2],"score":1.5},"topK":[{"snps":[0,1,2],"score":1.5}],"combinations":1,"elements":8,"durationNs":0,"elementsPerSec":0}`
	for _, load := range []struct {
		name string
		fill func(co *Coordinator)
	}{
		{"journal", func(co *Coordinator) {
			for _, line := range strings.Split(`{"t":"submit","job":"j1","spec":{"topK":2},"tiles":2,"sha":"ab","snps":3,"samples":8,"ns":1000}
`+grants+`{"t":"complete","job":"j1","tile":1,"seq":2,"report":`+shardless+`}`, "\n") {
				var rec walRecord
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatal(err)
				}
				co.applyLocked(rec)
			}
		}},
		{"snapshot", func(co *Coordinator) {
			if err := co.importSnapshotLocked([]byte(`{"seq":1,"jobs":[{"id":"j1","spec":{"topK":2},"tiles":2,"state":"running","sha":"ab","snps":3,"samples":8,"leaseSeq":2,"tileStates":[{"s":1,"q":1,"d":5000,"a":1},{"s":2,"q":2,"d":5000,"a":1}],` + leased + `,"reports":[null,` + shardless + `],"sub":1000}]}`)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		co := NewCoordinator(Config{})
		co.mu.Lock()
		load.fill(co)
		j := co.jobs["j1"]
		co.mu.Unlock()
		if j == nil || j.state != StateFailed || !strings.Contains(j.err, "covers no shard") {
			t.Errorf("shardless report from the %s: job %+v, want it failed naming the missing shard", load.name, j)
		}
	}
}

// TestVisibilityWaitsForDurability holds the commit path as a slow
// fsync would and checks both promises of the group commit: the ack of
// the job's last completion does not leave, and neither Status nor
// Result shows the finished job, until its finish record is durable.
func TestVisibilityWaitsForDurability(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	cl, _, co := newDurableCluster(t, Config{LeaseTTL: time.Minute, StateDir: t.TempDir()})
	id, err := cl.Submit(ctx, mx, paritySpec, 1, "slow-sync")
	if err != nil {
		t.Fatal(err)
	}
	results := tileResults(t, sess, leaseAll(t, cl, "w"))

	// A commit "in flight" that does not end until the test says so.
	co.syncMu.Lock()
	var once sync.Once
	finishSync := func() { once.Do(co.syncMu.Unlock) }
	defer finishSync()
	type ack struct {
		verdicts []TileStatus
		err      error
	}
	acked := make(chan ack, 1)
	go func() {
		v, err := cl.done(ctx, results)
		acked <- ack{v, err}
	}()
	// In memory the job finishes as soon as the handler has applied the
	// completion; wait for that.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		co.mu.Lock()
		state := co.jobs[id].state
		co.mu.Unlock()
		if state == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("completion never applied")
		}
	}
	for name, call := range map[string]func(context.Context) error{
		"status": func(ctx context.Context) error { _, err := cl.Status(ctx, id); return err },
		"result": func(ctx context.Context) error { _, err := cl.Result(ctx, id); return err },
		"list":   func(ctx context.Context) error { _, err := cl.Jobs(ctx); return err },
	} {
		short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		err := call(short)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s answered before the finish record was durable: err = %v", name, err)
		}
	}
	select {
	case a := <-acked:
		t.Fatalf("completion acknowledged before its record was durable: %+v", a)
	default:
	}

	finishSync()
	if a := <-acked; a.err != nil || statuses(a.verdicts) != "accepted" {
		t.Fatalf("completion after the sync: %+v", a)
	}
	co.mu.Lock()
	pos := co.jobs[id].pos
	co.mu.Unlock()
	if co.durable.Load() < pos {
		t.Fatalf("acknowledged at durable position %d, finish record at %d", co.durable.Load(), pos)
	}
	if st, err := cl.Status(ctx, id); err != nil || st.State != StateDone {
		t.Fatalf("status after the sync: %+v, %v", st, err)
	}
	got, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "after slow sync", got, localReport(t, sess, paritySpec))
}

// TestGroupCommitConcurrentAcks posts completions from many goroutines
// at once (status readers alongside) and kills the coordinator the
// moment the last ack arrives: every acknowledged tile must be in the
// journal it left behind, however the fsyncs were shared. Run with
// -race -count=20.
func TestGroupCommitConcurrentAcks(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	cfg := Config{LeaseTTL: time.Minute, StateDir: t.TempDir()}
	cl, proxy, co := newDurableCluster(t, cfg)
	reg := obs.NewRegistry()
	co.Instrument(reg)
	const tiles = 24
	id, err := cl.Submit(ctx, mx, paritySpec, tiles, "concurrent")
	if err != nil {
		t.Fatal(err)
	}
	results := tileResults(t, sess, leaseAll(t, cl, "w"))
	if len(results) != tiles {
		t.Fatalf("granted %d tiles, want %d", len(results), tiles)
	}

	var wg sync.WaitGroup
	var accepted atomic.Int64
	stop := make(chan struct{})
	for i := 0; i < tiles; i += 3 {
		wg.Add(1)
		go func(mine []TileResult) {
			defer wg.Done()
			// One single-result request, then one batched request.
			for _, part := range [][]TileResult{mine[:1], mine[1:]} {
				verdicts, err := cl.done(ctx, part)
				if err != nil {
					t.Errorf("done: %v", err)
					return
				}
				for _, v := range verdicts {
					if v.Status == TileAccepted {
						accepted.Add(1)
					}
				}
			}
		}(results[i : i+3])
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st, err := cl.Status(ctx, id); err != nil {
				t.Errorf("status: %v", err)
				return
			} else if st.State == StateDone && st.Done != tiles {
				t.Errorf("done with %d of %d tiles", st.Done, tiles)
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if accepted.Load() != tiles {
		t.Fatalf("%d completions accepted, want %d", accepted.Load(), tiles)
	}

	// SIGKILL: whatever is not on disk is gone.
	proxy.crash()
	proxy.resume(t, cfg)
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Done != tiles {
		t.Fatalf("recovered %+v, want every acknowledged tile done", st)
	}
	got, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "after concurrent acks and a crash", got, localReport(t, sess, paritySpec))
	if !strings.Contains(expose(reg), "trigene_coord_commit_records_count") {
		t.Error("exposition lacks trigene_coord_commit_records")
	}
}

// restartingProxy fronts a durable coordinator and refuses the first
// done request it sees with 503, as a coordinator going down would,
// telling the test to restart it.
type restartingProxy struct {
	coordinatorProxy
	refused  chan struct{}
	tripOnce sync.Once
}

func (p *restartingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/done") {
		tripped := false
		p.tripOnce.Do(func() { tripped = true })
		if tripped {
			http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
			close(p.refused)
			return
		}
	}
	p.coordinatorProxy.ServeHTTP(w, r)
}

// TestCompletionSurvivesRestart: the coordinator restarts between a
// tile's compute and its POST. The finished result is not dropped — the
// completer retries while the restarted coordinator recovers the lease
// from its journal — so the job finishes without a TTL's wait and no
// tile is computed twice.
func TestCompletionSurvivesRestart(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	// With an hour's TTL a dropped result would stall the job for good.
	cfg := Config{LeaseTTL: time.Hour, StateDir: t.TempDir()}
	p := &restartingProxy{refused: make(chan struct{})}
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

	reg := obs.NewRegistry()
	w := &Worker{Client: cl, ID: "w", Poll: 5 * time.Millisecond}
	w.Instrument(reg)
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(wctx) }()
	t.Cleanup(func() { cancel(); wg.Wait() })

	const tiles = 6
	id, err := cl.Submit(ctx, mx, paritySpec, tiles, "restart")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.refused:
	case <-time.After(30 * time.Second):
		t.Fatal("no completion was ever posted")
	}
	// A clean restart: the journal is flushed, the listener stays.
	p.crash()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	co2 := p.resume(t, cfg)

	wait, cancelWait := context.WithTimeout(ctx, 30*time.Second)
	defer cancelWait()
	remote, err := cl.Wait(wait, id)
	if err != nil {
		t.Fatalf("job did not finish after the restart: %v", err)
	}
	reportsEqual(t, "after restart", remote, localReport(t, sess, paritySpec))
	co2.mu.Lock()
	_, states := co2.jobs[id].leases.Export()
	co2.mu.Unlock()
	for tile, ts := range states {
		if ts.State != sched.TileStateDone || ts.Attempts != 1 {
			t.Errorf("tile %d: state %d after %d grants, want done after 1", tile, ts.State, ts.Attempts)
		}
	}
	if line := fmt.Sprintf("trigene_worker_tiles_executed_total %d\n", tiles); !strings.Contains(expose(reg), line) {
		t.Errorf("worker did not execute exactly %d tiles (none twice):\n%s", tiles, expose(reg))
	}
}

// unbatchedWire makes a coordinator look like one that predates batching
// and long-polling: grants do not say "batch", waitMillis is dropped
// from lease bodies and status URLs. It counts what a worker that
// honours the missing flag must never send.
type unbatchedWire struct {
	next     http.Handler
	withMore atomic.Int64 // done/renew requests that carried "more"
	statuses atomic.Int64 // job status requests
}

func (u *unbatchedWire) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	switch {
	case r.URL.Path == "/v1/lease":
		var lr LeaseRequest
		json.Unmarshal(body, &lr)
		lr.WaitMillis = 0
		body, _ = json.Marshal(lr)
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		rec := httptest.NewRecorder()
		u.next.ServeHTTP(rec, r)
		out := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			var g LeaseGrant
			json.Unmarshal(out, &g)
			g.Batch = false
			out, _ = json.Marshal(g)
		}
		w.WriteHeader(rec.Code)
		w.Write(out)
		return
	case strings.HasSuffix(r.URL.Path, "/done") || strings.HasSuffix(r.URL.Path, "/renew"):
		var probe struct {
			More []json.RawMessage `json:"more"`
		}
		json.Unmarshal(body, &probe)
		if len(probe.More) > 0 {
			u.withMore.Add(1)
		}
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && strings.Count(r.URL.Path, "/") == 3:
		u.statuses.Add(1)
		r.URL.RawQuery = ""
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	u.next.ServeHTTP(w, r)
}

// TestMixedFleetUnbatched: today's worker and client against a
// coordinator that neither advertises batching nor parks requests fall
// back to one result per done request and to sleeping between polls,
// and the job still merges bit-exactly. (The
// other direction — a single-tile worker against today's coordinator —
// is every test that drives the wire with one token per request: a
// request without "more" keeps the 200/410/400 contract.)
func TestMixedFleetUnbatched(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	co := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
	reg := obs.NewRegistry()
	co.Instrument(reg)
	wire := &unbatchedWire{next: co}
	srv := httptest.NewServer(wire)
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)
	cl.Poll = 5 * time.Millisecond
	startWorkers(t, cl, 2)

	const tiles = 12
	started := time.Now()
	id, err := cl.Submit(ctx, mx, paritySpec, tiles, "unbatched")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(started)
	reportsEqual(t, "unbatched wire", remote, localReport(t, sess, paritySpec))
	if n := wire.withMore.Load(); n != 0 {
		t.Errorf("%d requests carried \"more\" to a coordinator that did not advertise batching", n)
	}
	for _, line := range []string{
		fmt.Sprintf("trigene_coord_completion_batch_count %d", tiles),
		fmt.Sprintf("trigene_coord_completion_batch_sum %d", tiles),
	} {
		if !strings.Contains(expose(reg), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
	// Wait slept between its polls rather than spinning.
	if polls, most := wire.statuses.Load(), int64(elapsed/cl.Poll)+2; polls > most {
		t.Errorf("Wait polled %d times in %v at a %v interval", polls, elapsed, cl.Poll)
	}
}

// TestLongPoll: a parked lease request is answered the moment tiles
// become grantable — by a submission, by a departing worker's release —
// and with 204 once its wait elapses; a parked status request is
// answered the moment the job leaves "running".
func TestLongPoll(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, _ := newTestCluster(t, Config{LeaseTTL: time.Hour})
	const parked = int64(time.Minute / time.Millisecond)

	asked := time.Now()
	if _, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w", WaitMillis: 30}); err != nil || ok {
		t.Fatalf("lease on an empty queue: ok=%v err=%v", ok, err)
	}
	if waited := time.Since(asked); waited < 30*time.Millisecond {
		t.Errorf("empty-queue lease answered after %v, want it parked for its 30ms", waited)
	}

	type leased struct {
		g   LeaseGrant
		ok  bool
		err error
	}
	park := func(worker string) chan leased {
		ch := make(chan leased, 1)
		go func() {
			g, ok, err := cl.lease(ctx, LeaseRequest{Worker: worker, WaitMillis: parked})
			ch <- leased{g, ok, err}
		}()
		time.Sleep(20 * time.Millisecond) // let the request reach its wait
		return ch
	}

	// Woken by a submission.
	first := park("w")
	id, err := cl.Submit(ctx, mx, paritySpec, 2, "long-poll")
	if err != nil {
		t.Fatal(err)
	}
	a := <-first
	if a.err != nil || !a.ok {
		t.Fatalf("parked lease after a submission: ok=%v err=%v", a.ok, a.err)
	}
	b, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || !ok {
		t.Fatalf("second tile: ok=%v err=%v", ok, err)
	}

	// Woken by a release: everything is leased until w leaves.
	second := park("w2")
	if released, err := cl.Leave(ctx, "w"); err != nil || released != 2 {
		t.Fatalf("leave released %d, %v", released, err)
	}
	c := <-second
	if c.err != nil || !c.ok {
		t.Fatalf("parked lease after a release: ok=%v err=%v", c.ok, c.err)
	}

	// A parked Wait is answered by the job's finish.
	waitClient := NewClient(cl.BaseURL)
	waitClient.Poll = time.Minute
	finished := make(chan error, 1)
	var remote *trigene.Report
	go func() {
		var err error
		remote, err = waitClient.Wait(ctx, id)
		finished <- err
	}()
	time.Sleep(20 * time.Millisecond)
	rest := leaseAll(t, cl, "w2")
	verdicts, err := cl.done(ctx, tileResults(t, sess, append([]LeaseGrant{c.g}, rest...)))
	if err != nil || statuses(verdicts) != "accepted accepted" {
		t.Fatalf("completing: %v %+v", err, verdicts)
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "long-polled wait", remote, localReport(t, sess, paritySpec))
	_, _ = a, b
}

// TestRequestBodyBounds: every route that reads a body refuses one past
// its bound with 413 and the uniform error body, whether the length is
// declared or only found out by reading.
func TestRequestBodyBounds(t *testing.T) {
	co := NewCoordinator(Config{})
	for _, tc := range []struct {
		path  string
		limit int64
	}{
		{"/v1/jobs", maxSubmitBody},
		{"/v1/lease", maxLeaseBody},
		{"/v1/lease/j1.0.1/renew", maxRenewBody},
		{"/v1/lease/j1.0.1/done", maxDoneBody},
		{"/v1/lease/j1.0.1/fail", maxFailBody},
		{"/v1/workers/w/drain", maxEmptyBody},
		{"/v1/workers/w/leave", maxEmptyBody},
		{"/v1/jobs/j1/cancel", maxEmptyBody},
	} {
		check := func(kind string, req *http.Request) {
			rec := httptest.NewRecorder()
			co.ServeHTTP(rec, req)
			var eb errorBody
			if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
				t.Errorf("%s with a %s oversized body: HTTP %d %q, want 413 and an error body", tc.path, kind, rec.Code, rec.Body.String())
			}
		}
		// Declared: refused on the Content-Length, nothing is read.
		req := httptest.NewRequest(http.MethodPost, tc.path, http.NoBody)
		req.ContentLength = tc.limit + 1
		check("declared", req)
		// Undeclared: a JSON string that never ends, cut off at the bound.
		if tc.limit <= maxRenewBody {
			body := io.MultiReader(strings.NewReader(`{"worker":"`), io.LimitReader(repeat('a'), tc.limit))
			req := httptest.NewRequest(http.MethodPost, tc.path, struct{ io.Reader }{body})
			check("streamed", req)
		}
	}
	// A body inside the bound still gets the route's own answer.
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lease", strings.NewReader(`{"worker":"w"}`)))
	if rec.Code != http.StatusNoContent {
		t.Errorf("small lease body: HTTP %d, want 204", rec.Code)
	}
}

// repeat reads as an endless run of one byte.
type repeat byte

func (b repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestWorkerRegistrySweep: the retention sweep of the worker registry
// runs once per staleness window, not on every lease and renewal.
func TestWorkerRegistrySweep(t *testing.T) {
	ctx := context.Background()
	clock := &fakeClock{now: time.Unix(8000, 0)}
	cl, co := newTestCluster(t, Config{LeaseTTL: 10 * time.Second, Now: clock.Now})
	lease := func(worker string) {
		t.Helper()
		if _, _, err := cl.lease(ctx, LeaseRequest{Worker: worker}); err != nil {
			t.Fatal(err)
		}
	}
	registered := func() int {
		co.mu.Lock()
		defer co.mu.Unlock()
		return len(co.workers)
	}
	lease("old")
	swept := clock.Now()
	clock.advance(workerRetention - time.Second)
	lease("mid") // sweeps: nothing is past retention yet
	clock.advance(2 * time.Second)
	lease("new") // "old" is past retention now, but the window has not turned
	if n := registered(); n != 3 {
		t.Fatalf("%d workers registered, want 3: the sweep ran inside its window", n)
	}
	co.mu.Lock()
	last := co.swept
	co.mu.Unlock()
	if !last.After(swept) || !last.Before(clock.Now()) {
		t.Fatalf("last sweep at %v, want the one at mid's lease", last)
	}
	clock.advance(co.staleAfter() + time.Second)
	lease("new")
	if n := registered(); n != 2 {
		t.Fatalf("%d workers registered after the window turned, want old evicted", n)
	}
}
