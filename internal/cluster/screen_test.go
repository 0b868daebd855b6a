package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"trigene"
	"trigene/internal/wal"
)

// screenedSpec is the two-phase configuration the screened cluster
// tests submit: a real pruning budget plus seed pairs, deep enough
// top-K that merge ordering is exercised.
func screenedSpec() trigene.SearchSpec {
	return trigene.SearchSpec{
		Order: 3, TopK: 5, Workers: 2,
		Screen: &trigene.ScreenSpec{MaxSurvivors: 12, SeedPairs: 3},
	}
}

// localScreened runs the reference single-node screened search for a
// spec (same options the cluster workers rebuild).
func localScreened(t *testing.T, sess *trigene.Session, spec trigene.SearchSpec) *trigene.Report {
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

// TestClusterScreenedParity distributes a screened job — stage 1 as
// its own sharded phase, survivors pinned into the stage-2 grants —
// and requires the merged Report to match the single-node screened run
// bit-exactly, including the stage-1 audit trail.
func TestClusterScreenedParity(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	spec := screenedSpec()
	want := localScreened(t, sess, spec)
	if want.Screen == nil {
		t.Fatal("local screened run carries no ScreenInfo")
	}

	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	cl.Tiles = 5 // both phases cut into 5 shards
	startWorkers(t, cl, 3)
	got, err := cl.ExecuteSearch(context.Background(), mx, spec)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "screened cluster", got, want)
	if got.Screen == nil {
		t.Fatal("merged cluster Report carries no ScreenInfo")
	}
	if got.Screen.PairsScanned != want.Screen.PairsScanned {
		t.Errorf("cluster screen scanned %d pairs, local %d", got.Screen.PairsScanned, want.Screen.PairsScanned)
	}
	if got.Screen.Survivors != want.Screen.Survivors {
		t.Errorf("cluster screen kept %d survivors, local %d", got.Screen.Survivors, want.Screen.Survivors)
	}
	if got.Screen.Threshold != want.Screen.Threshold {
		t.Errorf("cluster screen threshold %v, local %v", got.Screen.Threshold, want.Screen.Threshold)
	}
	if got.Screen.SeedPairs != want.Screen.SeedPairs {
		t.Errorf("cluster screen kept %d seeds, local %d", got.Screen.SeedPairs, want.Screen.SeedPairs)
	}
}

// TestClusterScreenedPhaseGate verifies the two-phase protocol on the
// wire: stage-2 tiles are withheld while stage-1 shards are open, and
// stage-2 grants carry the pinned survivor spec, not the submitted
// budget.
func TestClusterScreenedPhaseGate(t *testing.T) {
	mx := plantedMatrix(t)
	cl, co := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	id, err := cl.Submit(context.Background(), mx, screenedSpec(), 3, "gate")
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tiles != 6 || st.ScreenTiles != 3 {
		t.Fatalf("screened job sized %d tiles / %d screen tiles, want 6 / 3", st.Tiles, st.ScreenTiles)
	}

	// Drain every grantable lease: only the 3 stage-1 shards may come
	// out while the screen is unpinned.
	var stage1 []LeaseGrant
	for {
		g, ok, err := cl.lease(context.Background(), LeaseRequest{Worker: "gate-w"})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if g.Stage != "screen" {
			t.Fatalf("pre-pin grant for tile %d has stage %q, want \"screen\"", g.Tile, g.Stage)
		}
		if g.StageBase != 0 || g.StageCount != 3 {
			t.Fatalf("stage-1 grant coords base=%d count=%d, want 0/3", g.StageBase, g.StageCount)
		}
		stage1 = append(stage1, g)
	}
	granted := 0
	for _, g := range stage1 {
		granted += max(1, len(g.Granted))
	}
	if granted != 3 {
		t.Fatalf("phase gate leaked: %d tiles granted while stage 1 open, want 3", granted)
	}

	// Complete the stage-1 shards with real scans; the last completion
	// must pin stage 2 and open its grants.
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range stage1 {
		tiles := g.Granted
		if len(tiles) == 0 {
			tiles = []TileGrant{{Token: g.Token, Tile: g.Tile}}
		}
		for _, tg := range tiles {
			scores, err := sess.ScreenStage1(context.Background(), 3,
				trigene.WithShard(tg.Tile, 3), trigene.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			if accepted, err := cl.completeScreen(context.Background(), tg.Token, scores); err != nil || !accepted {
				t.Fatalf("stage-1 completion tile %d: accepted=%v err=%v", tg.Tile, accepted, err)
			}
		}
	}
	g, ok, err := cl.lease(context.Background(), LeaseRequest{Worker: "gate-w"})
	if err != nil || !ok {
		t.Fatalf("no stage-2 grant after stage 1 completed: ok=%v err=%v", ok, err)
	}
	if g.Stage != "" || g.StageBase != 3 || g.StageCount != 3 {
		t.Fatalf("stage-2 grant stage=%q base=%d count=%d, want \"\"/3/3", g.Stage, g.StageBase, g.StageCount)
	}
	if g.Spec.Screen == nil || len(g.Spec.Screen.Survivors) != 12 {
		t.Fatalf("stage-2 grant spec not pinned: %+v", g.Spec.Screen)
	}
	if g.Spec.Screen.MaxSurvivors != 0 {
		t.Fatalf("stage-2 grant still carries the submitted budget: %+v", g.Spec.Screen)
	}
	_ = co
}

// TestClusterScreenedSubmitValidation: bad screens fail at the door
// with the trigene validation text, and screens with a time budget are
// rejected as a cluster submission.
func TestClusterScreenedSubmitValidation(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{})
	cases := []struct {
		name string
		spec trigene.SearchSpec
		want string
	}{
		{"negative-survivors",
			trigene.SearchSpec{Screen: &trigene.ScreenSpec{MaxSurvivors: -1}},
			"negative screen survivor budget"},
		{"survivors-exceed-m",
			trigene.SearchSpec{Screen: &trigene.ScreenSpec{MaxSurvivors: 1000}},
			"exceeds the dataset's 24 SNPs"},
		{"budget-only",
			trigene.SearchSpec{Screen: &trigene.ScreenSpec{BudgetSeconds: 1.5}},
			"explicit survivor budget"},
		{"budget-and-cap",
			trigene.SearchSpec{Screen: &trigene.ScreenSpec{MaxSurvivors: 8, BudgetSeconds: 1.5}},
			"no time budget"},
		{"empty-spec",
			trigene.SearchSpec{Screen: &trigene.ScreenSpec{}},
			"empty ScreenSpec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.Submit(context.Background(), mx, tc.spec, 2, tc.name)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("submit error %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestClusterScreenedPinnedSubmit: a spec with pinned survivors skips
// the stage-1 phase entirely — no screen tiles, ordinary grants.
func TestClusterScreenedPinnedSubmit(t *testing.T) {
	mx := plantedMatrix(t)
	spec := trigene.SearchSpec{
		Order: 3, TopK: 4, Workers: 2,
		Screen: &trigene.ScreenSpec{Survivors: []int{1, 3, 5, 9, 11, 15, 20}},
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	want := localScreened(t, sess, spec)

	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	cl.Tiles = 3
	startWorkers(t, cl, 2)
	id, err := cl.Submit(context.Background(), mx, spec, 3, "pinned")
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.ScreenTiles != 0 || st.Tiles != 3 {
		t.Fatalf("pinned screened job sized %d tiles / %d screen tiles, want 3 / 0", st.Tiles, st.ScreenTiles)
	}
	got, err := cl.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "pinned screened cluster", got, want)
}

// TestDurableScreenedRecovery crashes a coordinator once mid-stage-1
// and once after the screen pinned, and requires the two-phase
// protocol to survive both: replayed stage-1 scores stay counted, the
// pin is recomputed deterministically from them on recovery, and the
// final merged Report is bit-exact with a local screened run.
func TestDurableScreenedRecovery(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	spec := screenedSpec()
	want := localScreened(t, sess, spec)

	cfg := Config{StateDir: t.TempDir(), LeaseTTL: 5 * time.Second}
	cl, proxy, _ := newDurableCluster(t, cfg)
	ctx := context.Background()
	id, err := cl.Submit(ctx, mx, spec, 2, "screened-durable")
	if err != nil {
		t.Fatal(err)
	}

	// Complete one stage-1 shard, then crash before the second lands.
	g1, ok, err := cl.lease(ctx, LeaseRequest{Worker: "d1"})
	if err != nil || !ok || g1.Stage != "screen" {
		t.Fatalf("first grant: ok=%v stage=%q err=%v", ok, g1.Stage, err)
	}
	scores, err := sess.ScreenStage1(ctx, 3, trigene.WithShard(g1.Tile, g1.StageCount), trigene.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if acc, err := cl.completeScreen(ctx, g1.Token, scores); err != nil || !acc {
		t.Fatalf("stage-1 completion: accepted=%v err=%v", acc, err)
	}
	proxy.crash()
	proxy.resume(t, cfg)

	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.ScreenTiles != 2 || st.ScreenDone != 1 {
		t.Fatalf("after first crash: screen %d/%d done, want 1/2", st.ScreenDone, st.ScreenTiles)
	}

	// Finish stage 1; the pin happens, then crash again — recovery must
	// recompute the identical pin from the journaled scores.
	g2, ok, err := cl.lease(ctx, LeaseRequest{Worker: "d1"})
	if err != nil || !ok || g2.Stage != "screen" {
		t.Fatalf("second stage-1 grant: ok=%v err=%v", ok, err)
	}
	scores, err = sess.ScreenStage1(ctx, 3, trigene.WithShard(g2.Tile, g2.StageCount), trigene.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if acc, err := cl.completeScreen(ctx, g2.Token, scores); err != nil || !acc {
		t.Fatalf("stage-1 completion: accepted=%v err=%v", acc, err)
	}
	proxy.crash()
	proxy.resume(t, cfg)

	// Stage-2 grants must come out pinned after recovery.
	var pinned *trigene.ScreenSpec
	for {
		g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "d1"})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if g.Stage != "" || g.Spec.Screen == nil || len(g.Spec.Screen.Survivors) == 0 {
			t.Fatalf("post-recovery grant not a pinned stage-2 grant: stage=%q screen=%+v", g.Stage, g.Spec.Screen)
		}
		pinned = g.Spec.Screen
		tiles := g.Granted
		if len(tiles) == 0 {
			tiles = []TileGrant{{Token: g.Token, Tile: g.Tile}}
		}
		for _, tg := range tiles {
			opts, err := g.Spec.Options()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sess.Search(ctx, append(opts,
				trigene.WithShard(tg.Tile-g.StageBase, g.StageCount))...)
			if err != nil {
				t.Fatal(err)
			}
			if acc, err := cl.complete(ctx, tg.Token, rep); err != nil || !acc {
				t.Fatalf("stage-2 completion tile %d: accepted=%v err=%v", tg.Tile, acc, err)
			}
		}
	}
	if pinned == nil {
		t.Fatal("no stage-2 grants after recovery")
	}
	if len(pinned.Survivors) != want.Screen.Survivors {
		t.Fatalf("recovered pin kept %d survivors, local screen kept %d", len(pinned.Survivors), want.Screen.Survivors)
	}

	got, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "screened durable", got, want)
	if got.Screen == nil || got.Screen.PairsScanned != want.Screen.PairsScanned {
		t.Fatalf("recovered ScreenInfo %+v, want pairsScanned %d", got.Screen, want.Screen.PairsScanned)
	}
}

// TestClusterScreenRefusesMalformedScores: stage-1 scores whose best
// list is shorter than their seen list never reach the merge that pins
// stage 2. Posted live as the shard that would close stage 1 they are
// refused at the door, the coordinator keeps answering, the tile stays
// leased and a correct re-post finishes the job bit-equal to the local
// run; found in the journal on recovery they fail the job under the
// replay policy of durable.go, naming the tile.
func TestClusterScreenRefusesMalformedScores(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	spec := screenedSpec()
	want := localScreened(t, sess, spec)
	cfg := Config{LeaseTTL: time.Minute, StateDir: t.TempDir()}
	cl, proxy, _ := newDurableCluster(t, cfg)

	// stage1 submits a job of two stage-1 shards, completes the first and
	// returns the second's token with its scores, good and malformed.
	stage1 := func(name string) (id, token string, good, bad *trigene.ScreenScores) {
		t.Helper()
		id, err := cl.Submit(ctx, mx, spec, 2, name)
		if err != nil {
			t.Fatal(err)
		}
		var tiles []TileGrant
		for _, g := range leaseAll(t, cl, "w") {
			tiles = append(tiles, g.Granted...)
		}
		if len(tiles) != 2 {
			t.Fatalf("%d stage-1 tiles granted, want 2", len(tiles))
		}
		scans := make([]*trigene.ScreenScores, 2)
		for i, tg := range tiles {
			if scans[i], err = sess.ScreenStage1(ctx, 3, trigene.WithShard(tg.Tile, 2), trigene.WithWorkers(2)); err != nil {
				t.Fatal(err)
			}
		}
		if acc, err := cl.completeScreen(ctx, tiles[0].Token, scans[0]); err != nil || !acc {
			t.Fatalf("first stage-1 completion: accepted=%v err=%v", acc, err)
		}
		short := *scans[1]
		short.Best = short.Best[:len(short.Best)-1]
		return id, tiles[1].Token, scans[1], &short
	}
	status := func(id string) *JobStatus {
		t.Helper()
		// A coordinator that panicked under its lock never answers again.
		short, cancel := context.WithTimeout(ctx, 3*time.Second)
		defer cancel()
		st, err := cl.Status(short, id)
		if err != nil {
			t.Fatalf("status of %s: %v", id, err)
		}
		return st
	}

	id, token, good, bad := stage1("posted live")
	if _, err := cl.completeScreen(ctx, token, bad); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("malformed scores posted live: err = %v, want a shape refusal", err)
	}
	if st := status(id); st.State != StateRunning || st.ScreenDone != 1 || st.Leased != 1 {
		t.Fatalf("after the refused post: %+v, want the tile still leased", st)
	}
	if acc, err := cl.completeScreen(ctx, token, good); err != nil || !acc {
		t.Fatalf("correct re-post: accepted=%v err=%v", acc, err)
	}
	verdicts, err := cl.done(ctx, tileResults(t, sess, leaseAll(t, cl, "w")))
	if err != nil || statuses(verdicts) != "accepted accepted" {
		t.Fatalf("completing stage 2: %v, %+v", err, verdicts)
	}
	got, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "after a refused stage-1 post", got, want)

	// The same scores as a journal record, appended behind the crashed
	// coordinator's back.
	id, token, _, bad = stage1("in the journal")
	_, tile, _, _ := parseLeaseToken(token)
	proxy.crash()
	l, err := wal.Open(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(walRecord{T: recComplete, Job: id, Tile: tile, Screen: raw})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	proxy.resume(t, cfg)
	st := status(id)
	if st.State != StateFailed || !strings.Contains(st.Error, fmt.Sprintf("tile %d", tile)) || !strings.Contains(st.Error, "shape mismatch") {
		t.Fatalf("job with malformed stage-1 scores in its journal recovered as %+v, want failed on that tile's shape", st)
	}
}
