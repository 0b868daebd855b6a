package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trigene"
)

// mustJSON marshals v, failing the test on error.
func mustJSON(t testing.TB, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// resultJSON is a merged Report's JSON with its host timing zeroed: what
// two runs of one job must agree on byte for byte.
func resultJSON(t testing.TB, rep *trigene.Report) string {
	t.Helper()
	r := *rep
	r.Duration, r.ElementsPerSec = 0, 0
	return mustJSON(t, r)
}

// reportFormWire fronts a coordinator and counts the forms of the search
// tile Reports posted through it. With jsonOnly it also makes the
// coordinator look like one that predates the binary form: its grants
// do not say "binaryReports".
type reportFormWire struct {
	next            http.Handler
	jsonOnly        bool
	binary, objects atomic.Int64
}

func (u *reportFormWire) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	switch {
	case r.URL.Path == "/v1/lease" && u.jsonOnly:
		rec := httptest.NewRecorder()
		u.next.ServeHTTP(rec, r)
		out := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			var g LeaseGrant
			json.Unmarshal(out, &g)
			g.BinaryReports = false
			out, _ = json.Marshal(g)
		}
		w.WriteHeader(rec.Code)
		w.Write(out)
		return
	case strings.HasSuffix(r.URL.Path, "/done"):
		var req CompleteRequest
		json.Unmarshal(body, &req)
		for _, raw := range append([]json.RawMessage{req.Report}, func() (rs []json.RawMessage) {
			for _, m := range req.More {
				rs = append(rs, m.Report)
			}
			return rs
		}()...) {
			switch {
			case len(raw) == 0:
			case raw[0] == '"':
				u.binary.Add(1)
			default:
				u.objects.Add(1)
			}
		}
	}
	u.next.ServeHTTP(w, r)
}

// TestClusterReportForms runs one job through workers that post the
// binary form (today's grants advertise it) and through workers that
// post the JSON object (grants without the capability, as an older
// coordinator sends them): each worker posts only the form its grants
// allow, and both merged Results are byte-identical with each other
// and with the local search.
func TestClusterReportForms(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	want := resultJSON(t, localReport(t, sess, paritySpec))
	for _, jsonOnly := range []bool{false, true} {
		co := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
		wire := &reportFormWire{next: co, jsonOnly: jsonOnly}
		srv := httptest.NewServer(wire)
		cl := NewClient(srv.URL)
		cl.Poll = 5 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w := &Worker{Client: cl, ID: "w", Poll: 5 * time.Millisecond}
		done := make(chan struct{})
		go func() { defer close(done); w.Run(ctx) }()

		id, err := cl.Submit(ctx, mx, paritySpec, 9, "forms")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Wait(ctx, id)
		cancel()
		<-done
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := resultJSON(t, rep); got != want {
			t.Errorf("jsonOnly=%v: result\n%s\nwant\n%s", jsonOnly, got, want)
		}
		binary, objects := wire.binary.Load(), wire.objects.Load()
		if jsonOnly && (binary != 0 || objects == 0) || !jsonOnly && (objects != 0 || binary == 0) {
			t.Errorf("jsonOnly=%v: workers posted %d binary and %d JSON reports", jsonOnly, binary, objects)
		}
	}
}

// asJSONForm re-spells a posted search tile Report as the JSON object a
// worker without the binary capability posts.
func asJSONForm(t testing.TB, res TileResult) TileResult {
	t.Helper()
	var tr tileReport
	if err := json.Unmarshal(res.Report, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.binary {
		t.Fatalf("tile report posted as %.20s…, want the binary form", res.Report)
	}
	tr.binary = false
	res.Report = json.RawMessage(mustJSON(t, tr))
	return res
}

// TestMixedReportFormsReplay: a job whose tiles were posted half in the
// binary form and half as JSON objects recovers from a journal holding
// both, then from a snapshot holding both, and finishes with the Result
// of the local search.
func TestMixedReportFormsReplay(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	ctx := context.Background()
	cfg := Config{LeaseTTL: time.Hour, StateDir: t.TempDir()}
	cl, proxy, _ := newDurableCluster(t, cfg)
	const tiles = 6
	id, err := cl.Submit(ctx, mx, paritySpec, tiles, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	results := tileResults(t, sess, leaseAll(t, cl, "w"))
	if len(results) != tiles {
		t.Fatalf("%d tiles leased, want %d", len(results), tiles)
	}
	for i := range results {
		if i%2 == 1 {
			results[i] = asJSONForm(t, results[i])
		}
	}
	post := func(res TileResult) {
		t.Helper()
		if acc, err := cl.post(ctx, res); err != nil || !acc {
			t.Fatalf("posting %s: accepted=%v err=%v", res.Token, acc, err)
		}
	}
	for _, res := range results[:tiles-2] {
		post(res)
	}

	// The journal holds complete records of both forms.
	proxy.crash()
	co := proxy.resume(t, cfg)
	if st, err := cl.Status(ctx, id); err != nil || st.Done != tiles-2 {
		t.Fatalf("after replaying the journal: %+v, %v", st, err)
	}
	post(results[tiles-2])

	// The snapshot holds slots of both forms, each as it was posted.
	co.mu.Lock()
	err = co.snapshotLocked()
	snap := co.exportLocked()
	co.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results[:tiles-1] {
		_, tile, _, err := parseLeaseToken(res.Token)
		if err != nil {
			t.Fatal(err)
		}
		if raw := snap.Jobs[0].Reports[tile]; string(raw) != string(res.Report) {
			t.Fatalf("snapshot slot %d = %.40s…, posted %.40s…", tile, raw, res.Report)
		}
	}
	proxy.crash()
	proxy.resume(t, cfg)
	if st, err := cl.Status(ctx, id); err != nil || st.Done != tiles-1 {
		t.Fatalf("after loading the snapshot: %+v, %v", st, err)
	}
	post(results[tiles-1])

	rep, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, rep), resultJSON(t, localReport(t, sess, paritySpec)); got != want {
		t.Errorf("result\n%s\nwant\n%s", got, want)
	}
}

// TestSearchTileRefusals posts, for the live lease of a search tile, a
// Report that is not the tile's — in the binary form and as a JSON
// object — and checks each is answered invalid, naming why, and leaves
// the tile not done; the genuine Report is then accepted.
func TestSearchTileRefusals(t *testing.T) {
	mx := plantedMatrix(t)
	sess := sessionFor(t, mx)
	spec := trigene.SearchSpec{TopK: 3, Workers: 1}
	for _, tc := range []struct {
		name, want string
		edit       func(r *trigene.Report)
	}{
		{"wrong order", "order-2", func(r *trigene.Report) { r.Order = 2 }},
		{"wrong objective", `"mi"`, func(r *trigene.Report) { r.Objective = "mi" }},
		{"another shard", "covers shard 0 of 3", func(r *trigene.Report) { r.Shard.Index = 0 }},
		{"another cut", "covers shard 1 of 4", func(r *trigene.Report) { r.Shard.Count = 4 }},
		{"no shard", "covers no shard", func(r *trigene.Report) { r.Shard = nil }},
		{"SNP out of range", "not strictly increasing in [0, 24)", func(r *trigene.Report) { r.TopK[1].SNPs[2] = 24 }},
		{"negative SNP", "not strictly increasing", func(r *trigene.Report) { r.TopK[0].SNPs[0] = -1 }},
		{"unsorted SNPs", "not strictly increasing", func(r *trigene.Report) {
			r.TopK[2].SNPs[0], r.TopK[2].SNPs[1] = r.TopK[2].SNPs[1], r.TopK[2].SNPs[0]
		}},
		{"repeated SNP", "not strictly increasing", func(r *trigene.Report) { r.TopK[1].SNPs[1] = r.TopK[1].SNPs[0] }},
		{"short candidate", "has 2 SNPs, want 3", func(r *trigene.Report) { r.TopK[0].SNPs = r.TopK[0].SNPs[:2] }},
		{"NaN score", "non-finite", func(r *trigene.Report) { r.TopK[2].Score = math.NaN() }},
		{"Inf score", "non-finite", func(r *trigene.Report) { r.TopK[0].Score = math.Inf(1) }},
		{"NaN best", "non-finite", func(r *trigene.Report) { r.Best.Score = math.NaN() }},
		{"NaN elements", "non-finite", func(r *trigene.Report) { r.Elements = math.NaN() }},
		{"Inf rate", "non-finite", func(r *trigene.Report) { r.ElementsPerSec = math.Inf(-1) }},
		{"too many candidates", "ranks 4 candidates; the job keeps 3", func(r *trigene.Report) {
			r.TopK = append(r.TopK, r.TopK[2])
		}},
		{"another top-K limit", "ranked under top-100; the job keeps 3", func(r *trigene.Report) {
			raw := strings.Replace(mustJSON(t, r), `"topKLimit":3,`, `"topKLimit":100,`, 1)
			if err := json.Unmarshal([]byte(raw), r); err != nil || r.TopKLimit() != 100 {
				t.Fatalf("forging the limit: %v", err)
			}
		}},
	} {
		for _, binary := range []bool{true, false} {
			if !binary && (strings.Contains(tc.name, "NaN") || strings.Contains(tc.name, "Inf")) {
				continue // JSON has no NaN or ±Inf
			}
			co := NewCoordinator(Config{LeaseTTL: time.Hour})
			rec := walRecord{Job: "j1", Spec: &spec, Tiles: 3, SNPs: sess.SNPs(), Samples: sess.Samples()}
			j := newJob(rec)
			co.jobs[j.id], co.order = j, []string{j.id}
			// The grant's copy that holds tile 1 alone.
			var g LeaseGrant
			for g.Granted == nil {
				gr, ok := co.grantLocked(LeaseRequest{Worker: "w"}, time.Now())
				if !ok {
					t.Fatal("tile 1 never granted")
				}
				for _, tg := range gr.Granted {
					if tg.Tile == 1 {
						g, g.Granted = gr, []TileGrant{tg}
					}
				}
			}
			g.BinaryReports = binary
			res := tileResults(t, sess, []LeaseGrant{g})[0]
			var tr tileReport
			if err := json.Unmarshal(res.Report, &tr); err != nil || tr.binary != binary {
				t.Fatalf("genuine report: binary=%v err=%v", tr.binary, err)
			}
			if len(tr.TopK) != 3 {
				t.Fatalf("genuine report ranks %d candidates, want 3", len(tr.TopK))
			}
			forged := tr
			forged.Report.TopK = make([]trigene.SearchCandidate, len(tr.TopK))
			for i, c := range tr.TopK {
				forged.Report.TopK[i] = trigene.SearchCandidate{SNPs: append([]int(nil), c.SNPs...), Score: c.Score}
			}
			shard := *tr.Shard
			forged.Report.Shard = &shard
			tc.edit(&forged.Report)
			bad := res
			bad.Report = json.RawMessage(mustJSON(t, forged))

			st, _ := co.completeLocked(bad, time.Now())
			if st.Status != TileInvalid || !strings.Contains(st.Error, tc.want) {
				t.Errorf("%s (binary=%v): verdict %+v, want invalid naming %q", tc.name, binary, st, tc.want)
			}
			if j.leases.Done() != 0 || j.partials[1] != nil {
				t.Errorf("%s (binary=%v): refused report counted", tc.name, binary)
			}
			if st, _ := co.completeLocked(res, time.Now()); st.Status != TileAccepted {
				t.Errorf("%s (binary=%v): genuine report after the refusal: %+v", tc.name, binary, st)
			}
		}
	}
}
