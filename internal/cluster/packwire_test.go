package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trigene"
	"trigene/internal/store"
)

// testLogger routes slog records into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// sessionFor builds a Session over mx, failing the test on error.
func sessionFor(t testing.TB, mx *trigene.Matrix) *trigene.Session {
	t.Helper()
	s, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCoordinatorServesPackedDataset: whatever the submission format,
// the dataset a worker fetches is .tpack bytes carrying the submitted
// matrix, and the lease grant names the content hash (not a byte
// hash), so binary and packed submissions of one dataset share cache
// entries.
func TestCoordinatorServesPackedDataset(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	ctx := context.Background()

	binID, err := cl.Submit(ctx, mx, trigene.SearchSpec{}, 2, "binary-submit")
	if err != nil {
		t.Fatal(err)
	}
	packID, err := cl.SubmitSession(ctx, sess, trigene.SearchSpec{}, 2, "packed-submit")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{binID, packID} {
		raw, err := cl.dataset(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !store.IsPack(raw) {
			t.Fatalf("%s: served dataset is not a .tpack (magic %q)", id, raw[:4])
		}
		got, err := trigene.ReadPack(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: served pack does not load: %v", id, err)
		}
		if got.DatasetHash() != sess.DatasetHash() {
			t.Fatalf("%s: served pack hash %s != %s", id, got.DatasetHash(), sess.DatasetHash())
		}
	}
	// Both submissions carry the same content hash in their grants.
	grant, ok, err := cl.lease(ctx, LeaseRequest{Worker: "probe"})
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if grant.DatasetSHA256 != sess.DatasetHash() {
		t.Fatalf("grant names %s, want content hash %s", grant.DatasetSHA256, sess.DatasetHash())
	}
}

// TestPackedSubmitParity: a job submitted as a .tpack and
// executed by loopback workers merges bit-exact with the local run.
func TestPackedSubmitParity(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	startWorkers(t, cl, 2)
	ctx := context.Background()

	spec := trigene.SearchSpec{TopK: 5}
	id, err := cl.SubmitSession(ctx, sess, spec, 5, "packed")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Search(ctx, trigene.WithTopK(5))
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "packed submit", got, want)
}

// TestSessionCacheLRU: the worker's session cache is a bounded LRU —
// recently used datasets survive, the least recently used is evicted,
// and re-putting an existing key refreshes its recency.
func TestSessionCacheLRU(t *testing.T) {
	sessions := make([]*trigene.Session, 4)
	for i := range sessions {
		mx, err := trigene.Generate(trigene.GenConfig{SNPs: 6, Samples: 40, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sessionFor(t, mx)
	}
	sc := sessionCache{cap: 2}
	sc.put("a", sessions[0])
	sc.put("b", sessions[1])
	if _, ok := sc.get("a"); !ok {
		t.Fatal("a missing")
	}
	// a is now most recent; inserting c must evict b.
	sc.put("c", sessions[2])
	if _, ok := sc.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if _, ok := sc.get("c"); !ok {
		t.Fatal("c missing")
	}
	if _, ok := sc.get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	// a was touched after c, so inserting d evicts c.
	sc.put("d", sessions[3])
	if _, ok := sc.get("c"); ok {
		t.Fatal("c survived eviction")
	}
	if len(sc.keys) != 2 || len(sc.vals) != 2 {
		t.Fatalf("cache holds %d/%d entries, want 2", len(sc.keys), len(sc.vals))
	}
}

// TestSessionCacheDefaultCap: the zero-value cache bounds itself.
func TestSessionCacheDefaultCap(t *testing.T) {
	var sc sessionCache
	for i := 0; i < 3*defaultSessionCacheCap; i++ {
		mx, err := trigene.Generate(trigene.GenConfig{SNPs: 5, Samples: 30, Seed: int64(200 + i)})
		if err != nil {
			t.Fatal(err)
		}
		sc.put(fmt.Sprintf("k%d", i), sessionFor(t, mx))
	}
	if len(sc.keys) != defaultSessionCacheCap {
		t.Fatalf("cache grew to %d entries, want %d", len(sc.keys), defaultSessionCacheCap)
	}
}

// TestWorkerPackDiskCache: a worker with a cache dir persists the
// fetched dataset as <hash>.tpack, and a second worker sharing the
// directory loads it without touching the coordinator.
func TestWorkerPackDiskCache(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Client: cl, ID: "cacher", Poll: 5 * time.Millisecond, CacheDir: dir, Logger: testLogger(t)}
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()

	id, err := cl.SubmitSession(ctx, sess, trigene.SearchSpec{}, 2, "cached")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	path := filepath.Join(dir, sess.DatasetHash()+".tpack")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("pack not persisted: %v", err)
	}

	// A fresh worker loads it from disk: point it at an unreachable
	// coordinator so a fetch attempt would fail loudly.
	w2 := &Worker{Client: NewClient("http://127.0.0.1:1"), CacheDir: dir, Logger: testLogger(t)}
	s := w2.sessionFromDisk(sess.DatasetHash())
	if s == nil {
		t.Fatal("disk cache miss for a persisted pack")
	}
	defer s.Close()
	if s.DatasetHash() != sess.DatasetHash() {
		t.Fatalf("disk cache returned %s, want %s", s.DatasetHash(), sess.DatasetHash())
	}
}
