package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trigene"
	"trigene/internal/obs"
)

// submitWire fronts a coordinator and records the length of every
// submission body that passes. With dropHash it also makes the
// coordinator look like one that predates submission by reference: it
// strips datasetSHA256 from every submission before the coordinator
// reads it.
type submitWire struct {
	next     http.Handler
	dropHash bool

	mu     sync.Mutex
	bodies []int
}

func (s *submitWire) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.dropHash {
			var fields map[string]json.RawMessage
			if json.Unmarshal(raw, &fields) == nil {
				delete(fields, "datasetSHA256")
				raw, _ = json.Marshal(fields)
			}
		}
		s.mu.Lock()
		s.bodies = append(s.bodies, len(raw))
		s.mu.Unlock()
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(raw)), int64(len(raw))
	}
	s.next.ServeHTTP(w, r)
}

// taken returns the body lengths recorded since the last call.
func (s *submitWire) taken() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.bodies
	s.bodies = nil
	return out
}

// byReference is the largest submission body that carries no dataset.
const byReference = 1 << 10

// seededMatrix is a small dataset, distinct for every seed.
func seededMatrix(t testing.TB, seed int64) *trigene.Matrix {
	t.Helper()
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 12, Samples: 200, Seed: seed, MAFMin: 0.2, MAFMax: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// postSubmit sends a raw submission to a coordinator and returns the
// status and the decoded error body (empty on success).
func postSubmit(t *testing.T, h http.Handler, req SubmitRequest) (int, errorBody) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(mustJSON(t, req))))
	var eb errorBody
	if rec.Code != http.StatusCreated {
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("HTTP %d without an error body: %q", rec.Code, rec.Body.String())
		}
	}
	return rec.Code, eb
}

// binaryOf is mx in the trigene binary format, as an old client uploads it.
func binaryOf(t testing.TB, mx *trigene.Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trigene.WriteBinary(&buf, mx); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitByReference: a second submission of a dataset a running job
// holds goes out as the spec and the hash alone, runs on the same bytes
// (one copy per hash), and moves the "referenced" count; once no job on
// it runs, an in-memory coordinator holds it no more and the dataset is
// uploaded again.
func TestSubmitByReference(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	co := NewCoordinator(Config{})
	reg := obs.NewRegistry()
	co.Instrument(reg)
	wire := &submitWire{next: co}
	srv := httptest.NewServer(wire)
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)

	counts := func() (referenced, uploaded float64) {
		series := scrapeRegistry(t, reg)
		return series[`trigene_cluster_submissions_total{dataset="referenced"}`],
			series[`trigene_cluster_submissions_total{dataset="uploaded"}`]
	}
	first, err := cl.Submit(ctx, mx, trigene.SearchSpec{TopK: 2}, 2, "first")
	if err != nil {
		t.Fatal(err)
	}
	if b := wire.taken(); len(b) != 2 || b[0] > byReference || b[1] < len(binaryOf(t, mx)) {
		t.Fatalf("first submission bodies %v, want a reference refused, then the upload", b)
	}
	if ref, up := counts(); ref != 0 || up != 1 {
		t.Fatalf("after the first submission: referenced %v, uploaded %v; want 0, 1", ref, up)
	}
	second, err := cl.Submit(ctx, mx, trigene.SearchSpec{Order: 2}, 3, "second")
	if err != nil {
		t.Fatal(err)
	}
	third, err := cl.SubmitSession(ctx, sess, trigene.SearchSpec{}, 1, "third")
	if err != nil {
		t.Fatal(err)
	}
	if b := wire.taken(); len(b) != 2 || b[0] > byReference || b[1] > byReference {
		t.Fatalf("second and third submission bodies %v, want one reference each", b)
	}
	if ref, up := counts(); ref != 2 || up != 1 {
		t.Fatalf("after three submissions: referenced %v, uploaded %v; want 2, 1", ref, up)
	}
	co.mu.Lock()
	a, b, c := co.jobs[first].dataset, co.jobs[second].dataset, co.jobs[third].dataset
	co.mu.Unlock()
	if len(a) == 0 || &a[0] != &b[0] || &a[0] != &c[0] {
		t.Error("the running jobs on one dataset hold separate copies of it")
	}
	st, err := cl.Status(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SNPs != mx.SNPs() || st.Samples != mx.Samples() || st.Tiles != 3 {
		t.Errorf("by-reference job status %+v, want %d x %d over 3 tiles", st, mx.SNPs(), mx.Samples())
	}

	for _, id := range []string{first, second, third} {
		if err := cl.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Submit(ctx, mx, trigene.SearchSpec{}, 1, "again"); err != nil {
		t.Fatal(err)
	}
	if b := wire.taken(); len(b) != 2 {
		t.Fatalf("submission after every job on the dataset finished: bodies %v, want a refused reference and an upload", b)
	}
	if ref, up := counts(); ref != 2 || up != 2 {
		t.Fatalf("after the upload again: referenced %v, uploaded %v; want 2, 2", ref, up)
	}
}

// tamperedV1 is a format version 1 pack whose stored bin and split0
// planes were swapped under recomputed CRCs: every checksum and its
// content hash verify, and it returns the dataset it decodes to.
func tamperedV1(t *testing.T) ([]byte, *trigene.Matrix) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "store", "testdata", "tampered_v1.tpack"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := trigene.ReadPack(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return data, s.Matrix()
}

// TestSubmitPackCannotPoisonReferences: one client uploads a version 1
// pack whose stored planes disagree with its genotypes, and another then
// submits the genuine matrix, which goes by reference to those bytes.
// The second job's Report equals the local search of the matrix: the
// workers search only what the content hash covers.
func TestSubmitPackCannotPoisonReferences(t *testing.T) {
	tampered, mx := tamperedV1(t)
	local := sessionFor(t, mx)
	ctx := context.Background()
	co := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
	wire := &submitWire{next: co}
	srv := httptest.NewServer(wire)
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)
	cl.Poll = 5 * time.Millisecond

	spec := trigene.SearchSpec{TopK: 5}
	if code, eb := postSubmit(t, co, SubmitRequest{Name: "upload", Spec: spec, Tiles: 2, Dataset: tampered}); code != http.StatusCreated {
		t.Fatalf("version 1 upload: HTTP %d %q", code, eb.Error)
	}
	id, err := cl.Submit(ctx, mx, spec, 3, "honest")
	if err != nil {
		t.Fatal(err)
	}
	if b := wire.taken(); len(b) != 1 || b[0] > byReference {
		t.Fatalf("honest submission bodies %v, want one reference", b)
	}
	startWorkers(t, cl, 2)
	got, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Search(ctx, trigene.WithTopK(5))
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "by reference to an uploaded version 1 pack", got, want)
}

// TestSubmitDatasetHashDoor: the hash a submission names is checked
// before it can become a path, a request must name a dataset, an upload
// must hash to the hash it names, and a reference to a dataset the
// coordinator does not hold gets the typed refusal.
func TestSubmitDatasetHashDoor(t *testing.T) {
	mx, other := plantedMatrix(t), seededMatrix(t, 5)
	sha, otherSHA := sessionFor(t, mx).DatasetHash(), sessionFor(t, other).DatasetHash()
	cfg := Config{StateDir: t.TempDir()}
	co, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })

	for _, tc := range []struct {
		name string
		req  SubmitRequest
		want string
	}{
		{"parent path", SubmitRequest{DatasetSHA256: "../x"}, "invalid datasetSHA256"},
		{"parent path with bytes", SubmitRequest{DatasetSHA256: "../" + sha[3:], Dataset: binaryOf(t, mx)}, "invalid datasetSHA256"},
		{"uppercase", SubmitRequest{DatasetSHA256: strings.ToUpper(sha)}, "invalid datasetSHA256"},
		{"63 characters", SubmitRequest{DatasetSHA256: sha[:63]}, "invalid datasetSHA256"},
		{"65 characters", SubmitRequest{DatasetSHA256: sha + "0"}, "invalid datasetSHA256"},
		{"neither field", SubmitRequest{}, "sets neither dataset nor datasetSHA256"},
		{"upload of another dataset", SubmitRequest{DatasetSHA256: otherSHA, Dataset: binaryOf(t, mx)}, "content hash is " + sha},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Tiles = 2
			code, eb := postSubmit(t, co, tc.req)
			if code != http.StatusBadRequest || !strings.Contains(eb.Error, tc.want) || eb.Code != "" {
				t.Errorf("HTTP %d %+v, want 400 naming %q", code, eb, tc.want)
			}
		})
	}
	if names := packNames(t, cfg.StateDir); len(names) != 0 {
		t.Errorf("refused submissions left packs %v", names)
	}

	code, eb := postSubmit(t, co, SubmitRequest{Tiles: 2, DatasetSHA256: otherSHA})
	if code != http.StatusNotFound || eb.Code != codeDatasetNotHeld {
		t.Errorf("reference to a dataset never submitted: HTTP %d %+v, want 404 %q", code, eb, codeDatasetNotHeld)
	}
	if code, eb := postSubmit(t, co, SubmitRequest{Tiles: 2, DatasetSHA256: sha, Dataset: binaryOf(t, mx)}); code != http.StatusCreated {
		t.Errorf("upload naming its own hash: HTTP %d %+v, want 201", code, eb)
	}
}

// hugeHeader is a binary dataset of twelve bytes whose header names
// 2^24 x 2^24 genotypes: 2^46 bytes of body that never arrive.
var hugeHeader = []byte("TGB1\x00\x00\x00\x01\x00\x00\x00\x01")

// TestSubmitHugeHeaderIsRefused: an upload whose header names far more
// than it holds gets a 400 before any allocation of that size, and the
// coordinator goes on serving.
func TestSubmitHugeHeaderIsRefused(t *testing.T) {
	co := NewCoordinator(Config{})
	t.Cleanup(func() { co.Close() })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, eb := postSubmit(t, co, SubmitRequest{Tiles: 1, Dataset: hugeHeader})
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest || !strings.Contains(eb.Error, "invalid dataset") {
		t.Errorf("12-byte upload naming 2^24 x 2^24: HTTP %d %+v, want 400", code, eb)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("refusing it allocated %d bytes", grew)
	}
	if code, eb := postSubmit(t, co, SubmitRequest{Tiles: 1, Dataset: binaryOf(t, plantedMatrix(t))}); code != http.StatusCreated {
		t.Errorf("next upload: HTTP %d %+v, want 201", code, eb)
	}
}

// TestSubmitCompatibility pins both directions of the protocol change,
// the door checks on a reference, and what a reference runs.
func TestSubmitCompatibility(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	local, err := sess.Search(ctx, trigene.WithTopK(3), trigene.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := trigene.SearchSpec{TopK: 3, Workers: 1}

	t.Run("new client, coordinator without the field", func(t *testing.T) {
		co := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
		wire := &submitWire{next: co, dropHash: true}
		srv := httptest.NewServer(wire)
		t.Cleanup(srv.Close)
		cl := NewClient(srv.URL)
		cl.Poll = 5 * time.Millisecond
		startWorkers(t, cl, 2)
		for i := 0; i < 2; i++ {
			id, err := cl.Submit(ctx, mx, spec, 3, "")
			if err != nil {
				t.Fatal(err)
			}
			if b := wire.taken(); len(b) != 2 || b[1] < len(binaryOf(t, mx)) {
				t.Fatalf("submission %d: bodies %v, want the reference refused and the upload", i, b)
			}
			rep, err := cl.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, "through a coordinator without the field", rep, local)
		}
	})

	t.Run("old client upload, then a reference", func(t *testing.T) {
		co := NewCoordinator(Config{})
		if code, eb := postSubmit(t, co, SubmitRequest{Spec: spec, Tiles: 2, Dataset: binaryOf(t, mx)}); code != http.StatusCreated {
			t.Fatalf("upload without a hash: HTTP %d %+v", code, eb)
		}
		if code, eb := postSubmit(t, co, SubmitRequest{Spec: spec, Tiles: 2, DatasetSHA256: sess.DatasetHash()}); code != http.StatusCreated {
			t.Fatalf("reference to the uploaded dataset: HTTP %d %+v", code, eb)
		}
	})

	t.Run("perm spec out of range", func(t *testing.T) {
		co := NewCoordinator(Config{})
		if code, eb := postSubmit(t, co, SubmitRequest{Tiles: 1, Dataset: binaryOf(t, mx)}); code != http.StatusCreated {
			t.Fatalf("holding job: HTTP %d %+v", code, eb)
		}
		bad := trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: [][]int{{3, 900}}}}
		upCode, upErr := postSubmit(t, co, SubmitRequest{Spec: bad, Tiles: 2, Dataset: binaryOf(t, mx)})
		refCode, refErr := postSubmit(t, co, SubmitRequest{Spec: bad, Tiles: 2, DatasetSHA256: sess.DatasetHash()})
		if upCode != http.StatusBadRequest || refCode != upCode || refErr != upErr {
			t.Errorf("by reference: HTTP %d %+v; uploaded: HTTP %d %+v; want the same 400", refCode, refErr, upCode, upErr)
		}
		screen := trigene.SearchSpec{Screen: &trigene.ScreenSpec{Survivors: []int{1, 2, 24}}}
		upCode, upErr = postSubmit(t, co, SubmitRequest{Spec: screen, Tiles: 2, Dataset: binaryOf(t, mx)})
		refCode, refErr = postSubmit(t, co, SubmitRequest{Spec: screen, Tiles: 2, DatasetSHA256: sess.DatasetHash()})
		if upCode != http.StatusBadRequest || refCode != upCode || refErr != upErr {
			t.Errorf("screen survivors past M by reference: HTTP %d %+v; uploaded: HTTP %d %+v; want the same 400", refCode, refErr, upCode, upErr)
		}
	})

	t.Run("reference runs bit-identical", func(t *testing.T) {
		cfg := Config{LeaseTTL: 5 * time.Second, StateDir: t.TempDir()}
		cl, _, co := newDurableCluster(t, cfg)
		reg := obs.NewRegistry()
		co.Instrument(reg)
		startWorkers(t, cl, 2)
		var results []string
		for i := 0; i < 2; i++ {
			id, err := cl.Submit(ctx, mx, spec, 4, "")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := cl.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, "merged", rep, local)
			results = append(results, resultJSON(t, rep))
		}
		if series := scrapeRegistry(t, reg); series[`trigene_cluster_submissions_total{dataset="referenced"}`] != 1 {
			t.Fatalf("the second submission was not by reference: %v", series)
		}
		if results[0] != results[1] {
			t.Errorf("by-reference result differs from the uploaded one:\n%s\n%s", results[1], results[0])
		}
	})

	t.Run("recovery after a reference commits", func(t *testing.T) {
		cfg := Config{LeaseTTL: 5 * time.Second, StateDir: t.TempDir()}
		p := &coordinatorProxy{}
		p.resume(t, cfg)
		wire := &submitWire{next: p}
		srv := httptest.NewServer(wire)
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
		held, err := cl.Submit(ctx, mx, spec, 2, "held")
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Cancel(ctx, held); err != nil {
			t.Fatal(err)
		}
		wire.taken()
		id, err := cl.Submit(ctx, mx, spec, 3, "by-reference")
		if err != nil {
			t.Fatal(err)
		}
		second, err := cl.Submit(ctx, mx, spec, 2, "by-reference too")
		if err != nil {
			t.Fatal(err)
		}
		if b := wire.taken(); len(b) != 2 {
			t.Fatalf("bodies %v, want two references: to the cancelled job's pack, then to the running job's bytes", b)
		}
		p.crash()
		co := p.resume(t, cfg)
		co.mu.Lock()
		a, b := co.jobs[id].dataset, co.jobs[second].dataset
		co.mu.Unlock()
		if len(a) == 0 || &a[0] != &b[0] {
			t.Error("the recovered running jobs on one dataset hold separate copies of it")
		}
		startWorkers(t, cl, 2)
		for _, id := range []string{id, second} {
			rep, err := cl.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, "recovered by-reference job "+id, rep, local)
		}
	})
}

// TestDurablePackStoreFollowsRetention: the pack store keeps a dataset
// exactly while a retained job names it — eviction of the last such job
// deletes its pack, with no restart — and recovery keeps the packs of the
// retained finished jobs.
func TestDurablePackStoreFollowsRetention(t *testing.T) {
	ctx := context.Background()
	cfg := Config{LeaseTTL: 5 * time.Second, Retain: 2, StateDir: t.TempDir()}
	cl, proxy, co := newDurableCluster(t, cfg)
	reg := obs.NewRegistry()
	co.Instrument(reg)
	var shas []string
	for seed := int64(1); seed <= 3; seed++ {
		mx := seededMatrix(t, seed)
		shas = append(shas, sessionFor(t, mx).DatasetHash()+".tpack")
		id, err := cl.Submit(ctx, mx, trigene.SearchSpec{}, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]string(nil), shas[1:]...)
	sort.Strings(want)
	if got := packNames(t, cfg.StateDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("pack store %v, want the two retained jobs' %v", got, want)
	}
	var bytesHeld int64
	for _, name := range want {
		info, err := os.Stat(co.packPath(strings.TrimSuffix(name, ".tpack")))
		if err != nil {
			t.Fatal(err)
		}
		bytesHeld += info.Size()
	}
	if got := scrapeRegistry(t, reg)["trigene_cluster_pack_store_bytes"]; got != float64(bytesHeld) {
		t.Errorf("pack store bytes gauge %v, want %d", got, bytesHeld)
	}

	proxy.crash()
	proxy.resume(t, cfg)
	if got := packNames(t, cfg.StateDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("pack store after a restart %v, want the two retained jobs' %v", got, want)
	}
	// The recovered coordinator still runs a reference to a retained
	// finished job's dataset.
	code, eb := postSubmit(t, proxy, SubmitRequest{Tiles: 1, DatasetSHA256: strings.TrimSuffix(shas[2], ".tpack")})
	if code != http.StatusCreated {
		t.Errorf("reference to a retained dataset after a restart: HTTP %d %+v", code, eb)
	}
	code, eb = postSubmit(t, proxy, SubmitRequest{Tiles: 1, DatasetSHA256: strings.TrimSuffix(shas[0], ".tpack")})
	if code != http.StatusNotFound || eb.Code != codeDatasetNotHeld {
		t.Errorf("reference to an evicted dataset: HTTP %d %+v, want 404 %q", code, eb, codeDatasetNotHeld)
	}
}

// TestDurableSubmitRacesEviction: a submission that has resolved its
// dataset to the pack in the store — or found the pack in place when
// writing it — keeps that pack while an eviction drops the last job that
// named it, until the submission's job names it in turn. First the
// interleaving step by step, then submissions and evictions of one
// dataset racing: every retained job's pack must be in the store.
func TestDurableSubmitRacesEviction(t *testing.T) {
	ctx := context.Background()
	a, b := seededMatrix(t, 1), seededMatrix(t, 2)
	shaA := sessionFor(t, a).DatasetHash()
	cfg := Config{LeaseTTL: 5 * time.Second, Retain: 1, StateDir: t.TempDir()}
	cl, _, co := newDurableCluster(t, cfg)
	submitCancel := func(mx *trigene.Matrix) {
		t.Helper()
		id, err := cl.Submit(ctx, mx, trigene.SearchSpec{}, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	packOf := func(sha string) bool {
		_, err := os.Stat(co.packPath(sha))
		return err == nil
	}

	submitCancel(a)
	for _, req := range []SubmitRequest{
		{DatasetSHA256: shaA},                          // resolves to the finished job's pack
		{DatasetSHA256: shaA, Dataset: binaryOf(t, a)}, // writePack finds it in place
	} {
		ds, code, err := co.submittedDataset(&req)
		if err != nil {
			t.Fatalf("resolving %d-byte submission: HTTP %d %v", len(req.Dataset), code, err)
		}
		submitCancel(b) // evicts the job on A
		if !packOf(shaA) {
			t.Fatal("eviction deleted the pack a submission had resolved")
		}
		if ds.uploaded {
			if err := co.writePack(ds.sha, ds.data); err != nil {
				t.Fatal(err)
			}
		}
		co.unpin(shaA)
		if packOf(shaA) {
			t.Fatal("the pack outlived its last pin with no job naming it")
		}
		submitCancel(a)
	}

	// Racing for real: a submission of A against one of B whose cancel
	// evicts the finished job on A.
	for i := 0; i < 20; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		var idA string
		wg.Add(2)
		go func() {
			defer wg.Done()
			id, err := cl.Submit(ctx, a, trigene.SearchSpec{}, 1, "")
			idA = id
			errs <- err
		}()
		go func() {
			defer wg.Done()
			id, err := cl.Submit(ctx, b, trigene.SearchSpec{}, 1, "")
			if err == nil {
				err = cl.Cancel(ctx, id)
			}
			errs <- err
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		co.mu.Lock()
		for _, id := range co.order {
			if sha := co.jobs[id].datasetSHA; !packOf(sha) {
				co.mu.Unlock()
				t.Fatalf("round %d: retained job %s names %s, whose pack is gone", i, id, sha)
			}
		}
		co.mu.Unlock()
		if err := cl.Cancel(ctx, idA); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitRefusesInvalidMatrices: Submit names a Matrix without
// building a Session, and still refuses what NewSession refuses — fewer
// than 3 SNPs, a genotype or phenotype out of range, one class only —
// with "invalid dataset: " and NewSession's error, before it sends any
// request.
func TestSubmitRefusesInvalidMatrices(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "no request was expected", http.StatusTeapot)
	}))
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)
	valid := func(m, n int) *trigene.Matrix {
		mx := trigene.NewMatrix(m, n)
		for j := 0; j < n; j += 2 {
			mx.SetPhen(j, 1)
		}
		return mx
	}
	cases := map[string]*trigene.Matrix{"two SNPs": valid(2, 10)}
	mx := valid(5, 70)
	mx.Row(4)[69] = 3
	cases["genotype 3 in the last byte"] = mx
	mx = valid(5, 70)
	mx.Row(0)[0] = 255
	cases["genotype 255 in the first byte"] = mx
	mx = valid(5, 70)
	mx.Phenotypes()[7] = 2
	cases["phenotype 2"] = mx
	cases["controls only"] = trigene.NewMatrix(4, 9)
	mx = trigene.NewMatrix(4, 9)
	for j := 0; j < 9; j++ {
		mx.SetPhen(j, 1)
	}
	cases["cases only"] = mx
	for name, mx := range cases {
		_, want := trigene.NewSession(mx)
		if want == nil {
			t.Fatalf("%s: NewSession accepts the matrix", name)
		}
		_, err := cl.Submit(context.Background(), mx, trigene.SearchSpec{}, 1, name)
		if err == nil || err.Error() != "invalid dataset: "+want.Error() {
			t.Errorf("%s: Submit error %v, want %q", name, err, "invalid dataset: "+want.Error())
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("%d requests reached the coordinator", n)
	}
}

// TestSubmitRefusesSpacesBeyondInt64: a search whose C(M,k) overflows an
// int64 is refused at the door with 400, naming the space; the largest M
// that fits is taken, and so is a larger M screened to a few survivors.
func TestSubmitRefusesSpacesBeyondInt64(t *testing.T) {
	co := NewCoordinator(Config{})
	for _, c := range []struct {
		m      int
		screen *trigene.ScreenSpec
		want   int
	}{
		{1733, nil, http.StatusCreated},
		{1734, nil, http.StatusBadRequest},
		{1734, &trigene.ScreenSpec{MaxSurvivors: 20}, http.StatusCreated},
	} {
		mx := trigene.NewMatrix(c.m, 8)
		for j := 0; j < 8; j += 2 {
			mx.SetPhen(j, 1)
		}
		spec := trigene.SearchSpec{Order: 7, Screen: c.screen}
		code, eb := postSubmit(t, co, SubmitRequest{Spec: spec, Tiles: 4, Dataset: binaryOf(t, mx)})
		if code != c.want {
			t.Errorf("order 7 over %d SNPs, screen %+v: HTTP %d %q, want %d", c.m, c.screen, code, eb.Error, c.want)
		}
		if c.want == http.StatusBadRequest && !strings.Contains(eb.Error, "more than an int64 counts") {
			t.Errorf("order 7 over %d SNPs: refusal %q does not name the space", c.m, eb.Error)
		}
	}
}
