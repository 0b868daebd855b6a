package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trigene"
	"trigene/internal/sched"
)

// plantedMatrix is the shared test dataset: a strong 3-way signal at
// (3, 9, 15), small enough that every backend searches it in
// milliseconds.
func plantedMatrix(t testing.TB) *trigene.Matrix {
	t.Helper()
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 24, Samples: 900, Seed: 11, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{3, 9, 15},
			Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// newTestCluster starts a loopback coordinator and returns a client
// with fast polling.
func newTestCluster(t *testing.T, cfg Config) (*Client, *Coordinator) {
	t.Helper()
	co := NewCoordinator(cfg)
	srv := httptest.NewServer(co)
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)
	cl.Poll = 5 * time.Millisecond
	return cl, co
}

// startWorkers runs n loopback workers until the test ends.
func startWorkers(t *testing.T, cl *Client, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{Client: cl, ID: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// The single-token forms of the client's batched calls, as the tests
// that drive the wire by hand use them: one result or one renewal per
// request, which is also the contract of a worker that predates
// batching (a lost lease answers 410, here errLeaseLost).

func (c *Client) post(ctx context.Context, res TileResult) (accepted bool, err error) {
	verdicts, err := c.done(ctx, []TileResult{res})
	if err != nil {
		return false, err
	}
	switch v := verdicts[0]; v.Status {
	case TileGone:
		return false, errLeaseLost
	case TileInvalid:
		return false, errors.New(v.Error)
	default:
		return v.Status == TileAccepted, nil
	}
}

func (c *Client) complete(ctx context.Context, token string, rep *trigene.Report) (bool, error) {
	raw, err := json.Marshal(rep)
	if err != nil {
		return false, err
	}
	return c.post(ctx, TileResult{Token: token, Report: raw})
}

func (c *Client) completeScreen(ctx context.Context, token string, sc *trigene.ScreenScores) (bool, error) {
	raw, err := json.Marshal(sc)
	if err != nil {
		return false, err
	}
	return c.post(ctx, TileResult{Token: token, Screen: raw})
}

func (c *Client) completePerm(ctx context.Context, token string, ps *trigene.PermScores) (bool, error) {
	raw, err := json.Marshal(ps)
	if err != nil {
		return false, err
	}
	return c.post(ctx, TileResult{Token: token, Perm: raw})
}

func (c *Client) renewOne(ctx context.Context, token string, rr RenewRequest) error {
	lost, err := c.renew(ctx, []string{token}, rr)
	if err == nil && len(lost) > 0 {
		err = errLeaseLost
	}
	return err
}

// reportsEqual asserts bit-exact candidates and identical coverage.
func reportsEqual(t *testing.T, label string, got, want *trigene.Report) {
	t.Helper()
	if got.Combinations != want.Combinations {
		t.Errorf("%s: %d combinations, want %d", label, got.Combinations, want.Combinations)
	}
	if len(got.TopK) != len(want.TopK) {
		t.Fatalf("%s: top-K %d entries, want %d", label, len(got.TopK), len(want.TopK))
	}
	for i := range want.TopK {
		w, g := want.TopK[i], got.TopK[i]
		if len(g.SNPs) != len(w.SNPs) {
			t.Fatalf("%s: top-%d %v, want %v", label, i+1, g.SNPs, w.SNPs)
		}
		for k := range w.SNPs {
			if g.SNPs[k] != w.SNPs[k] {
				t.Fatalf("%s: top-%d %v, want %v", label, i+1, g.SNPs, w.SNPs)
			}
		}
		if g.Score != w.Score {
			t.Errorf("%s: top-%d score %.12f != %.12f", label, i+1, g.Score, w.Score)
		}
	}
}

// TestClusterLoopbackParity is the acceptance gate: a coordinator and
// 4 loopback workers produce a Report bit-exact with the single-node
// run for every backend and every order it supports, through both the
// RemoteExecutor surface and the public WithCluster option.
func TestClusterLoopbackParity(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	cl.Tiles = 7 // odd tile count: uneven shards, some possibly empty
	startWorkers(t, cl, 4)
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
			opts, err := tc.spec.Options()
			if err != nil {
				t.Fatal(err)
			}
			local, err := sess.Search(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := cl.ExecuteSearch(ctx, mx, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, tc.name, remote, local)
		})
	}

	// The public wiring: Session.Search + WithCluster goes through the
	// same client and stays bit-exact.
	local, err := sess.Search(ctx, trigene.WithTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sess.Search(ctx, trigene.WithCluster(cl), trigene.WithTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "WithCluster", remote, local)
}

// TestClusterTopKDeeperThanTiles: the requested top-K depth survives
// the wire. With many tiles over a small space each tile Report
// carries only a couple of candidates, but the merge must still fill
// the full requested depth from their union — not shrink to the
// deepest per-tile list.
func TestClusterTopKDeeperThanTiles(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 10, Samples: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	startWorkers(t, cl, 2)
	ctx := context.Background()

	spec := trigene.SearchSpec{TopK: 5, Workers: 1}
	// C(10,3) = 120 ranks over 60 tiles: at most 2 candidates per tile.
	id, err := cl.Submit(ctx, mx, spec, 60, "deep-topk")
	if err != nil {
		t.Fatal(err)
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
	if len(local.TopK) != 5 {
		t.Fatalf("local depth %d, want 5", len(local.TopK))
	}
	reportsEqual(t, "deep top-K", remote, local)
}

// TestClusterWorkerKilledMidSearch kills a worker that holds a lease
// and checks the cluster still converges to the identical Report: the
// dead worker's tile expires and is re-issued to a healthy worker.
func TestClusterWorkerKilledMidSearch(t *testing.T) {
	// A dataset big enough that one tile takes tens of milliseconds on
	// one core, so the kill lands mid-tile.
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 120, Samples: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	spec := trigene.SearchSpec{TopK: 5, Workers: 1}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	local, err := sess.Search(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}

	cl, _ := newTestCluster(t, Config{LeaseTTL: 120 * time.Millisecond})
	id, err := cl.Submit(ctx, mx, spec, 3, "kill-test")
	if err != nil {
		t.Fatal(err)
	}

	// The victim starts alone, so it must take the first lease.
	victimCtx, killVictim := context.WithCancel(context.Background())
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		(&Worker{Client: cl, ID: "victim", Poll: 2 * time.Millisecond}).Run(victimCtx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a tile")
		}
		time.Sleep(time.Millisecond)
	}
	killVictim()
	<-victimDone

	// Healthy workers finish the job, including the re-issued tile.
	startWorkers(t, cl, 2)
	remote, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "after worker death", remote, local)
}

// TestClusterExactlyOnce drives the lease lifecycle deterministically
// with an injected clock: an expired lease is re-issued, the
// superseded holder's completion is discarded, and the first accepted
// result per tile is the one that feeds the merge.
func TestClusterExactlyOnce(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	ttl := 10 * time.Second
	cl, _ := newTestCluster(t, Config{LeaseTTL: ttl, Now: clock})
	spec := trigene.SearchSpec{TopK: 4}
	id, err := cl.Submit(ctx, mx, spec, 2, "")
	if err != nil {
		t.Fatal(err)
	}

	// Tile 0 leased, expires, re-issued.
	g1, ok, err := cl.lease(ctx, LeaseRequest{Worker: "zombie"})
	if err != nil || !ok {
		t.Fatalf("first lease: ok=%v err=%v", ok, err)
	}
	advance(ttl + time.Second)
	g2, ok, err := cl.lease(ctx, LeaseRequest{Worker: "healthy"})
	if err != nil || !ok {
		t.Fatalf("re-lease: ok=%v err=%v", ok, err)
	}
	if g2.Tile != g1.Tile || g2.Token == g1.Token {
		t.Fatalf("re-lease = %+v, want re-issue of %+v", g2, g1)
	}

	// Both holders compute the tile; the zombie's (stale) completion is
	// discarded, the healthy holder's is accepted.
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	tileRep, err := sess.Search(ctx, append(opts, trigene.WithShard(g1.Tile, g1.Tiles))...)
	if err != nil {
		t.Fatal(err)
	}
	if acc, err := cl.complete(ctx, g1.Token, tileRep); err != nil || acc {
		t.Fatalf("stale completion: accepted=%v err=%v, want discarded", acc, err)
	}
	if acc, err := cl.complete(ctx, g2.Token, tileRep); err != nil || !acc {
		t.Fatalf("current completion: accepted=%v err=%v", acc, err)
	}
	// A duplicate after acceptance is discarded too.
	if acc, err := cl.complete(ctx, g2.Token, tileRep); err != nil || acc {
		t.Fatalf("duplicate completion: accepted=%v err=%v, want discarded", acc, err)
	}

	// Renewal of the dead lease fails; the live lease renews until the
	// tile completes.
	g3, ok, err := cl.lease(ctx, LeaseRequest{Worker: "healthy"})
	if err != nil || !ok {
		t.Fatalf("tile 1 lease: ok=%v err=%v", ok, err)
	}
	if err := cl.renewOne(ctx, g1.Token, RenewRequest{}); !errors.Is(err, errLeaseLost) {
		t.Fatalf("renew of superseded lease = %v, want lease lost", err)
	}
	if err := cl.renewOne(ctx, g3.Token, RenewRequest{}); err != nil {
		t.Fatalf("renew of live lease: %v", err)
	}

	// A superseded holder must not be able to fail the job either: the
	// zombie's version-skew error is its own problem, not the job's.
	if err := cl.fail(ctx, g1.Token, "zombie says the spec is bad"); !errors.Is(err, errLeaseLost) {
		t.Fatalf("stale fail = %v, want lease lost", err)
	}
	if st, err := cl.Status(ctx, id); err != nil || st.State != StateRunning {
		t.Fatalf("job after stale fail: %+v, %v", st, err)
	}

	rep1, err := sess.Search(ctx, append(opts, trigene.WithShard(g3.Tile, g3.Tiles))...)
	if err != nil {
		t.Fatal(err)
	}
	if acc, err := cl.complete(ctx, g3.Token, rep1); err != nil || !acc {
		t.Fatalf("tile 1 completion: accepted=%v err=%v", acc, err)
	}

	// The job is done and bit-exact despite the lease churn.
	remote, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Search(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "exactly-once", remote, local)

	// Lease traffic for a finished job answers "gone".
	if err := cl.renewOne(ctx, g3.Token, RenewRequest{}); !errors.Is(err, errLeaseLost) {
		t.Fatalf("renew after job done = %v, want lease lost", err)
	}
	if _, err := cl.complete(ctx, g3.Token, rep1); !errors.Is(err, errLeaseLost) {
		t.Fatalf("complete after job done = %v, want lease lost", err)
	}
}

// TestClusterJobQueue: multiple named jobs run concurrently, each with
// its own spec, progress and retained result.
func TestClusterJobQueue(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	ctx := context.Background()

	specs := map[string]trigene.SearchSpec{
		"pairs":   {Order: 2, TopK: 3, Workers: 2},
		"triples": {Order: 3, TopK: 3, Workers: 2},
		"mi":      {Order: 3, TopK: 3, Objective: "mi", Workers: 2},
	}
	ids := make(map[string]string)
	for name, sp := range specs {
		id, err := cl.Submit(ctx, mx, sp, 3, name)
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		ids[name] = id
	}
	jobs, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(jobs))
	}
	for _, j := range jobs {
		if j.State != StateRunning || j.SNPs != mx.SNPs() || j.Samples != mx.Samples() {
			t.Errorf("job %s status: %+v", j.ID, j)
		}
	}

	startWorkers(t, cl, 3)
	for name, sp := range specs {
		remote, err := cl.Wait(ctx, ids[name])
		if err != nil {
			t.Fatalf("wait %s: %v", name, err)
		}
		opts, err := sp.Options()
		if err != nil {
			t.Fatal(err)
		}
		local, err := sess.Search(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, name, remote, local)
		// Results are retained: a second fetch still answers.
		again, err := cl.Result(ctx, ids[name])
		if err != nil {
			t.Fatalf("re-fetch %s: %v", name, err)
		}
		reportsEqual(t, name+" retained", again, local)
	}
}

// TestClusterCancelAndRetention: cancel kills a job's leases, and the
// retention cap evicts the oldest finished jobs.
func TestClusterCancelAndRetention(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second, Retain: 2})
	ctx := context.Background()
	spec := trigene.SearchSpec{TopK: 2, Workers: 1}

	cancelled, err := cl.Submit(ctx, mx, spec, 2, "to-cancel")
	if err != nil {
		t.Fatal(err)
	}
	g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if err := cl.Cancel(ctx, cancelled); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(ctx, cancelled)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state after cancel = %q", st.State)
	}
	if err := cl.renewOne(ctx, g.Token, RenewRequest{}); !errors.Is(err, errLeaseLost) {
		t.Fatalf("renew after cancel = %v, want lease lost", err)
	}
	if _, err := cl.Result(ctx, cancelled); err == nil {
		t.Fatal("result of a cancelled job answered")
	}

	// Finish three more jobs; with Retain=2 the cancelled job and the
	// first finished one are evicted.
	startWorkers(t, cl, 2)
	var finished []string
	for i := 0; i < 3; i++ {
		id, err := cl.Submit(ctx, mx, spec, 2, fmt.Sprintf("job%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		finished = append(finished, id)
	}
	jobs, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(jobs))
	}
	if _, err := cl.Status(ctx, cancelled); err == nil {
		t.Error("evicted job still has status")
	}
	if _, err := cl.Result(ctx, finished[len(finished)-1]); err != nil {
		t.Errorf("retained job lost its result: %v", err)
	}
}

// TestClusterSubmitValidation: malformed submissions fail at the door.
func TestClusterSubmitValidation(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{})
	ctx := context.Background()

	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{}, 0, ""); err == nil {
		t.Error("zero tiles accepted")
	}
	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{Backend: "bogus"}, 2, ""); err == nil {
		t.Error("bogus backend accepted")
	}
	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{Approach: "V9"}, 2, ""); err == nil {
		t.Error("bogus approach accepted")
	}
	// A lease against an empty queue answers no-content, not an error.
	if _, ok, err := cl.lease(ctx, LeaseRequest{Worker: "w"}); err != nil || ok {
		t.Errorf("lease on empty queue: ok=%v err=%v", ok, err)
	}
	// Unknown job IDs answer not-found.
	if _, err := cl.Status(ctx, "j999"); err == nil {
		t.Error("unknown job status answered")
	}
	if _, err := cl.Result(ctx, "j999"); err == nil {
		t.Error("unknown job result answered")
	}
}

// TestClusterDeterministicFailure: a spec that parses but cannot
// execute (gpusim only supports order 3) fails the job with the
// worker's error, instead of re-issuing the tile forever.
func TestClusterDeterministicFailure(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	ctx := context.Background()
	startWorkers(t, cl, 1)

	id, err := cl.Submit(ctx, mx, trigene.SearchSpec{Backend: "gpusim:GN1", Order: 4}, 2, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Wait(ctx, id)
	if err == nil {
		t.Fatal("doomed job completed")
	}
	st, serr := cl.Status(ctx, id)
	if serr != nil {
		t.Fatal(serr)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Errorf("doomed job status: %+v", st)
	}
}

// TestClusterResultWhileRunning: the result endpoint refuses until the
// job finishes.
func TestClusterResultWhileRunning(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	ctx := context.Background()
	id, err := cl.Submit(ctx, mx, trigene.SearchSpec{}, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Result(ctx, id); err == nil {
		t.Fatal("result of a running job answered")
	}
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Done != 0 || st.Tiles != 2 {
		t.Errorf("fresh job status: %+v", st)
	}
}

// TestWeightedLeaseBatches pins the guided grant sizing on the wire: a
// worker that has reported no rate gets one tile to measure, one that
// has gets its capacity's share of half the unleased tiles (advertised
// capacities are the currency while any live worker is unmeasured) but
// never more than its own rate finishes in a heartbeat interval, every
// tile travels under its own token, and the registry records the
// traffic.
func TestWeightedLeaseBatches(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 6 * time.Second}) // heartbeat interval 2s
	ctx := context.Background()
	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2}, 64, ""); err != nil {
		t.Fatal(err)
	}

	fresh, ok, err := cl.lease(ctx, LeaseRequest{Worker: "fresh", Capacity: 1})
	if err != nil || !ok {
		t.Fatalf("fresh lease: ok=%v err=%v", ok, err)
	}
	if len(fresh.Granted) != 1 || fresh.Granted[0].Token != fresh.Token || fresh.Granted[0].Tile != fresh.Tile {
		t.Fatalf("unmeasured worker's grant = %+v, want a single self-consistent tile", fresh)
	}
	if !fresh.Batch {
		t.Error("grant does not advertise batched completions")
	}

	// 63 unleased, capacities 1 (fresh) + 1: ceil(63·1 / (2·2)) = 16.
	slow, ok, err := cl.lease(ctx, LeaseRequest{Worker: "slow", Capacity: 1, TilesPerSec: 100})
	if err != nil || !ok {
		t.Fatalf("slow lease: ok=%v err=%v", ok, err)
	}
	if len(slow.Granted) != 16 {
		t.Fatalf("slow grant carries %d tiles, want 16", len(slow.Granted))
	}
	// 47 unleased, capacities 1 + 1 + 3: ceil(47·3 / (2·5)) = 15.
	fast, ok, err := cl.lease(ctx, LeaseRequest{Worker: "fast", Capacity: 3, TilesPerSec: 100})
	if err != nil || !ok {
		t.Fatalf("fast lease: ok=%v err=%v", ok, err)
	}
	if len(fast.Granted) != 15 {
		t.Fatalf("fast grant carries %d tiles, want 15", len(fast.Granted))
	}
	seen := map[int]bool{}
	for _, g := range []LeaseGrant{fresh, slow, fast} {
		for _, tg := range g.Granted {
			if seen[tg.Tile] {
				t.Fatalf("tile %d granted twice", tg.Tile)
			}
			seen[tg.Tile] = true
			if tg.Token == "" {
				t.Fatalf("tile %d has no token", tg.Tile)
			}
		}
	}
	if fast.Granted[0].Token != fast.Token || fast.Granted[0].Tile != fast.Tile {
		t.Errorf("grant head does not mirror Token/Tile: %+v", fast)
	}

	// The pace bound: 32 unleased would give capacity 3 of 8 six tiles,
	// but 2 tiles/s finishes only 4 in one 2s heartbeat interval.
	paced, ok, err := cl.lease(ctx, LeaseRequest{Worker: "paced", Capacity: 3, TilesPerSec: 2})
	if err != nil || !ok {
		t.Fatalf("paced lease: ok=%v err=%v", ok, err)
	}
	if len(paced.Granted) != 4 {
		t.Fatalf("paced grant carries %d tiles, want its pace of 4", len(paced.Granted))
	}

	ws, err := cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]WorkerStatus{}
	for _, w := range ws {
		byID[w.ID] = w
	}
	if byID["fresh"].Granted != 1 || byID["slow"].Granted != 16 || byID["fast"].Granted != 15 || byID["paced"].Granted != 4 {
		t.Errorf("registry grants: %+v", byID)
	}
	if byID["fast"].Capacity != 3 {
		t.Errorf("fast capacity = %g", byID["fast"].Capacity)
	}
}

// TestWeightedLeaseMeasuredRates: once every live worker reports a
// measured tiles/sec, the measured currency replaces advertised
// capacity. Two workers that advertise "equal" and measure 1:3 drain a
// job by turns: each one's grants shrink toward the tail and end at a
// single tile, the faster one's share follows its rate, and every tile
// is granted exactly once.
func TestWeightedLeaseMeasuredRates(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	ctx := context.Background()
	reqs := []LeaseRequest{
		{Worker: "a", Capacity: 1, TilesPerSec: 20},
		{Worker: "b", Capacity: 1, TilesPerSec: 60},
	}
	// Register both before there is work, so the first grant already
	// divides between them.
	for _, lr := range reqs {
		if _, ok, err := cl.lease(ctx, lr); err != nil || ok {
			t.Fatalf("%s on an empty queue: ok=%v err=%v", lr.Worker, ok, err)
		}
	}
	const tiles = 96
	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2}, tiles, ""); err != nil {
		t.Fatal(err)
	}
	sizes := map[string][]int{}
	seen := map[int]bool{}
	last := 0
	for turn := 0; len(seen) < tiles; turn++ {
		lr := reqs[turn%2]
		g, ok, err := cl.lease(ctx, lr)
		if err != nil || !ok {
			t.Fatalf("%s turn %d: ok=%v err=%v with %d of %d tiles granted", lr.Worker, turn, ok, err, len(seen), tiles)
		}
		for _, tg := range g.Granted {
			if seen[tg.Tile] {
				t.Fatalf("tile %d granted twice", tg.Tile)
			}
			seen[tg.Tile] = true
		}
		sizes[lr.Worker] = append(sizes[lr.Worker], len(g.Granted))
		last = len(g.Granted)
	}
	if last != 1 {
		t.Errorf("the job's last grant carries %d tiles, want 1: %v", last, sizes)
	}
	// First grants: ceil(96·20/160) = 12, then ceil(84·60/160) = 32.
	if sizes["a"][0] != 12 || sizes["b"][0] != 32 {
		t.Errorf("first grants a=%d b=%d, want 12 and 32", sizes["a"][0], sizes["b"][0])
	}
	total := map[string]int{}
	for id, ns := range sizes {
		for i, n := range ns {
			total[id] += n
			if i > 0 && n > ns[i-1] {
				t.Errorf("%s: grant %d grew from %d to %d tiles: %v", id, i, ns[i-1], n, ns)
			}
		}
		if n := ns[len(ns)-1]; n > 2 {
			t.Errorf("%s: last grant carries %d tiles, want the tail to end in single tiles: %v", id, n, ns)
		}
	}
	if ratio := float64(total["b"]) / float64(total["a"]); ratio < 2 || ratio > 3.5 {
		t.Errorf("shares a=%d b=%d (ratio %.2f), want about the 1:3 of the measured rates", total["a"], total["b"], ratio)
	}
}

// TestWeightedLeaseConvergence is the acceptance check: workers
// advertising unequal capabilities converge a job to the same merged
// Report as a single-node run, with every tile accounted exactly once.
func TestWeightedLeaseConvergence(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	ctx := context.Background()

	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i, capacity := range []float64{1, 4, 2} {
		w := &Worker{Client: cl, ID: fmt.Sprintf("cap%d", i), Capacity: capacity, Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })

	spec := trigene.SearchSpec{TopK: 6, Workers: 1}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Search(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	const tiles = 16
	id, err := cl.Submit(ctx, mx, spec, tiles, "weighted")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "weighted cluster", remote, local)

	ws, err := cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range ws {
		total += w.Completed
		if w.Completed > w.Granted {
			t.Errorf("worker %s completed %d of %d granted", w.ID, w.Completed, w.Granted)
		}
	}
	if total != tiles {
		t.Errorf("registry accounts %d completed tiles, want %d", total, tiles)
	}
}

// TestClusterTilePanicFailsJob: a tile whose computation panics, on the
// tile's own goroutine or on a consumer goroutine of a sched.Cursor's
// Drain (where the engine scores tiles), fails its job with an error
// naming the tile and the panic value, and the worker that ran it lives
// on to run the next job.
func TestClusterTilePanicFailsJob(t *testing.T) {
	mx := plantedMatrix(t)
	run := searchKind.run
	var panicked atomic.Int32
	searchKind.run = func(ctx context.Context, tr tileRun) (any, error) {
		switch tr.spec.TopK {
		case 2:
			panicked.Add(1)
			panic("boom")
		case 3:
			cur := sched.NewCursor(sched.NewSource(0, 8, 1))
			return nil, cur.Drain(ctx, 2, func(_ int, t sched.Tile) (int64, error) {
				if t.Lo == 5 {
					panicked.Add(1)
					panic("boom in a consumer")
				}
				return t.Len(), nil
			})
		}
		return run(ctx, tr)
	}
	t.Cleanup(func() { searchKind.run = run }) // after the workers stop
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	ctx := context.Background()
	startWorkers(t, cl, 1)

	for topK, want := range map[int]string{2: "tile 0 panicked: boom", 3: "tile 0 panicked: boom in a consumer"} {
		id, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: topK}, 1, "panics")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, id); err == nil {
			t.Fatalf("a job whose tile panicked (%s) completed", want)
		}
		st, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed || !strings.HasSuffix(st.Error, want) {
			t.Errorf("job status %+v, want failed naming %q", st, want)
		}
	}
	if panicked.Load() != 2 {
		t.Errorf("%d tiles panicked, want 2", panicked.Load())
	}
	rep, err := cl.ExecuteSearch(ctx, mx, paritySpec)
	if err != nil {
		t.Fatalf("the next job, on the same worker: %v", err)
	}
	reportsEqual(t, "after a panicked tile", rep, localReport(t, sessionFor(t, mx), paritySpec))
}
