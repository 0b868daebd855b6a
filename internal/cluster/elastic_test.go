package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trigene"
)

// TestWorkerDrainAndLeave drives the drain protocol on the wire
// directly: a draining worker gets no new grants, leave releases every
// lease it still holds for immediate re-issue (no TTL wait), the
// released tiles re-grant at attempt 1 (a clean hand-back is not a
// strike against the tile), and the leaver's stale completion is
// discarded.
func TestWorkerDrainAndLeave(t *testing.T) {
	mx := plantedMatrix(t)
	ctx := context.Background()
	// A TTL far beyond the test duration: only the release path can
	// make the leaver's tiles grantable again.
	cl, co := newTestCluster(t, Config{LeaseTTL: time.Hour})
	id, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2, Workers: 1}, 4, "drainy")
	if err != nil {
		t.Fatal(err)
	}

	ga1, ok, err := cl.lease(ctx, LeaseRequest{Worker: "leaver"})
	if err != nil || !ok {
		t.Fatalf("lease 1: ok=%v err=%v", ok, err)
	}
	ga2, ok, err := cl.lease(ctx, LeaseRequest{Worker: "leaver"})
	if err != nil || !ok {
		t.Fatalf("lease 2: ok=%v err=%v", ok, err)
	}

	if err := cl.Drain(ctx, "leaver"); err != nil {
		t.Fatal(err)
	}
	ws, err := cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range ws {
		if w.ID == "leaver" {
			found = true
			if !w.Draining {
				t.Error("registry does not show the worker draining")
			}
		}
	}
	if !found {
		t.Fatal("draining worker missing from the registry")
	}
	if _, ok, err := cl.lease(ctx, LeaseRequest{Worker: "leaver"}); err != nil || ok {
		t.Fatalf("draining worker got a grant: ok=%v err=%v", ok, err)
	}

	released, err := cl.Leave(ctx, "leaver")
	if err != nil {
		t.Fatal(err)
	}
	if released != 2 {
		t.Fatalf("leave released %d leases, want 2", released)
	}
	ws, err = cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.ID == "leaver" {
			t.Fatal("left worker still registered")
		}
	}

	// The released tiles re-issue immediately — and as fresh attempts.
	gb, ok, err := cl.lease(ctx, LeaseRequest{Worker: "stayer"})
	if err != nil || !ok {
		t.Fatalf("post-leave lease: ok=%v err=%v", ok, err)
	}
	if gb.Tile != ga1.Tile {
		t.Fatalf("post-leave grant = tile %d, want released tile %d", gb.Tile, ga1.Tile)
	}
	co.mu.Lock()
	attempts := co.jobs[id].leases.Attempts(gb.Tile)
	co.mu.Unlock()
	if attempts != 1 {
		t.Errorf("released tile re-granted at attempt %d, want 1", attempts)
	}

	// The leaver's abandoned token is dead: its completion is discarded.
	if acc, err := cl.complete(ctx, ga1.Token, &trigene.Report{}); err != nil || acc {
		t.Fatalf("left worker's completion: accepted=%v err=%v, want discarded", acc, err)
	}
	_ = ga2
}

// TestWorkerDrainHandsOffMidJob is the elastic integration path: a
// lone worker starts a job, drains mid-job (finishing its current
// tile, Run returning nil), and a worker joining mid-job finishes the
// rest immediately — with an hour-long TTL, only the leave-time lease
// release makes that possible — to a bit-exact Report.
func TestWorkerDrainHandsOffMidJob(t *testing.T) {
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

	cl, _ := newTestCluster(t, Config{LeaseTTL: time.Hour})
	id, err := cl.Submit(ctx, mx, spec, 6, "handoff")
	if err != nil {
		t.Fatal(err)
	}

	leaver := &Worker{Client: cl, ID: "leaver", Poll: 2 * time.Millisecond}
	lctx, lcancel := context.WithCancel(ctx)
	t.Cleanup(lcancel)
	runErr := make(chan error, 1)
	go func() { runErr <- leaver.Run(lctx) }()

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
			t.Fatal("leaver never completed a tile")
		}
		time.Sleep(time.Millisecond)
	}
	leaver.Drain(ctx)
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drained Run returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drained worker never exited")
	}
	// Drain leaves no lease behind: neither the rest of the grant the
	// leaver was running nor the one it had prefetched.
	if st, err := cl.Status(ctx, id); err != nil || st.Leased != 0 {
		t.Fatalf("after the drain: %+v, %v; want no tile leased", st, err)
	}

	// A new worker joins mid-job and finishes what the leaver left.
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		(&Worker{Client: cl, ID: "joiner", Poll: 2 * time.Millisecond}).Run(wctx)
	}()
	t.Cleanup(func() { cancel(); wg.Wait() })

	remote, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "drain hand-off", remote, local)

	ws, err := cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.ID == "leaver" {
			t.Error("drained worker still in the registry")
		}
	}
}

// TestLeaveFencesParkedLease: a lease request parked before its worker
// leaves is answered empty, not granted the tiles the leave released.
// A grant would re-register the departed worker and lease it tiles it
// never runs, so they stay leased until the TTL.
func TestLeaveFencesParkedLease(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 12, Samples: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ticks atomic.Int64
	clock := func() time.Time { return time.Unix(5000, ticks.Add(1)) }
	cl, co := newTestCluster(t, Config{LeaseTTL: time.Hour, Now: clock})
	id, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2, Workers: 1}, 1, "fenced")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w"}); err != nil || !ok {
		t.Fatalf("first lease: ok=%v err=%v", ok, err)
	}
	lastSeen := func() time.Time {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.workers["w"].lastSeen
	}
	granted := lastSeen()

	// The job's only tile is held, so the next request parks.
	type leaseOut struct {
		ok  bool
		err error
	}
	parked := make(chan leaseOut, 1)
	go func() {
		_, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w", WaitMillis: 20000})
		parked <- leaseOut{ok, err}
	}()
	// The request has registered and found nothing to grant once it has
	// stamped the worker's record; the lock it did that under also
	// holds the wake-up it then waits on.
	for lastSeen().Equal(granted) {
		time.Sleep(time.Millisecond)
	}

	if released, err := cl.Leave(ctx, "w"); err != nil || released != 1 {
		t.Fatalf("leave: released %d, %v; want 1", released, err)
	}
	out := <-parked
	if out.err != nil || out.ok {
		t.Fatalf("parked lease after the leave: ok=%v err=%v; want no grant", out.ok, out.err)
	}
	if st, err := cl.Status(ctx, id); err != nil || st.Leased != 0 {
		t.Fatalf("after the leave: %+v, %v; want no tile leased", st, err)
	}
	co.mu.Lock()
	_, registered := co.workers["w"]
	co.mu.Unlock()
	if registered {
		t.Error("departed worker back in the registry")
	}
}

// TestWorkerDrainWhileIdle: a drain reaches an idle worker through the
// poll wait — Run returns nil promptly, not a poll interval later.
func TestWorkerDrainWhileIdle(t *testing.T) {
	cl, _ := newTestCluster(t, Config{LeaseTTL: time.Minute})
	w := &Worker{Client: cl, ID: "idler", Poll: time.Hour}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let Run reach its idle wait
	w.Drain(context.Background())
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("idle drained Run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle worker ignored the drain")
	}
}

// TestJobMaxWorkers: a job's MaxWorkers cap admits only that many
// distinct live-lease holders; completion and expiry both free a slot.
func TestJobMaxWorkers(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var mu sync.Mutex
	now := time.Unix(4000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	ttl := 10 * time.Second
	cl, _ := newTestCluster(t, Config{LeaseTTL: ttl, Now: clock})
	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2, Workers: 1, MaxWorkers: 1}, 4, "capped"); err != nil {
		t.Fatal(err)
	}

	ga, ok, err := cl.lease(ctx, LeaseRequest{Worker: "a"})
	if err != nil || !ok {
		t.Fatalf("a: ok=%v err=%v", ok, err)
	}
	// The cap is full; a second worker is refused…
	if _, ok, err := cl.lease(ctx, LeaseRequest{Worker: "b"}); err != nil || ok {
		t.Fatalf("b admitted past MaxWorkers=1: ok=%v err=%v", ok, err)
	}
	// …but the existing holder may keep taking tiles.
	ga2, ok, err := cl.lease(ctx, LeaseRequest{Worker: "a"})
	if err != nil || !ok {
		t.Fatalf("a second tile: ok=%v err=%v", ok, err)
	}

	// Completing a's tiles frees the slot for b.
	if !completeTile(t, ctx, cl, sess, ga, ga.Granted[0]) || !completeTile(t, ctx, cl, sess, ga2, ga2.Granted[0]) {
		t.Fatal("a's completions discarded")
	}
	gb, ok, err := cl.lease(ctx, LeaseRequest{Worker: "b"})
	if err != nil || !ok {
		t.Fatalf("b after slot freed: ok=%v err=%v", ok, err)
	}
	// b holds the only live lease now; a is the one shut out…
	if _, ok, err := cl.lease(ctx, LeaseRequest{Worker: "a"}); err != nil || ok {
		t.Fatalf("a admitted alongside b: ok=%v err=%v", ok, err)
	}
	// …until b's lease expires, which frees the slot again.
	advance(ttl + time.Second)
	gc, ok, err := cl.lease(ctx, LeaseRequest{Worker: "c"})
	if err != nil || !ok {
		t.Fatalf("c after expiry: ok=%v err=%v", ok, err)
	}
	if gc.Tile != gb.Tile {
		t.Errorf("c granted tile %d, want b's expired tile %d re-issued", gc.Tile, gb.Tile)
	}
}

// TestJobDeadline: a job still running past its wall-clock budget is
// failed on observation, with completed work accounted in the error.
func TestJobDeadline(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var mu sync.Mutex
	now := time.Unix(5000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	cl, _ := newTestCluster(t, Config{LeaseTTL: 10 * time.Second, Now: clock})
	id, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2, Workers: 1, DeadlineMillis: 5000}, 2, "late")
	if err != nil {
		t.Fatal(err)
	}
	// An uncapped job submitted alongside must be untouched by the
	// neighbor's deadline.
	free, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2, Workers: 1}, 2, "free")
	if err != nil {
		t.Fatal(err)
	}

	g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if !completeTile(t, ctx, cl, sess, g, g.Granted[0]) {
		t.Fatal("completion discarded")
	}

	mu.Lock()
	now = now.Add(6 * time.Second)
	mu.Unlock()

	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state past deadline = %q, want failed", st.State)
	}
	if want := "deadline of 5000ms exceeded with 1/2 tiles done"; st.Error != want {
		t.Errorf("deadline error = %q, want %q", st.Error, want)
	}
	if _, err := cl.Result(ctx, id); err == nil {
		t.Error("result of a deadline-failed job answered")
	}
	// Lease traffic for the failed job is dead; the uncapped job still
	// grants.
	g2, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || !ok {
		t.Fatalf("lease after deadline: ok=%v err=%v", ok, err)
	}
	if g2.Job != free {
		t.Errorf("grant from %s, want the uncapped job %s", g2.Job, free)
	}
	if st, err := cl.Status(ctx, free); err != nil || st.State != StateRunning {
		t.Errorf("uncapped job: %+v, %v", st, err)
	}
}

// TestElasticSpecValidation: negative policy fields fail at the door.
func TestElasticSpecValidation(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{})
	ctx := context.Background()
	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{MaxWorkers: -1}, 2, ""); err == nil {
		t.Error("negative MaxWorkers accepted")
	}
	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{DeadlineMillis: -5}, 2, ""); err == nil {
		t.Error("negative DeadlineMillis accepted")
	}
}
