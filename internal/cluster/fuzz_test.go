package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"trigene"
	"trigene/internal/store"
)

// FuzzTilePayload posts arbitrary bytes as the payload of a tile of
// every kind, to a job whose open phase is that one tile: the kind's
// decode either refuses them — and then the tile is not done, nothing is
// stored and the job runs on — or accepts them, and then the phase's
// close runs over what was accepted. Neither may panic: a payload is a
// worker's word, or a journal's.
func FuzzTilePayload(f *testing.F) {
	mx := plantedMatrix(f)
	sess := sessionFor(f, mx)
	jobs := []walRecord{
		{Job: "j1", Spec: &trigene.SearchSpec{TopK: 3, Workers: 1}, Tiles: 1},
		{Job: "j1", Spec: &trigene.SearchSpec{TopK: 3, Workers: 1, Screen: &trigene.ScreenSpec{MaxSurvivors: 8, SeedPairs: 2}}, Tiles: 2, ScreenTiles: 1},
		{Job: "j1", Spec: &trigene.SearchSpec{Workers: 1, Perm: &trigene.PermSpec{SNPs: [][]int{{3, 9, 15}, {0, 1}}, Permutations: 40, Seed: 3}}, Tiles: 1},
	}
	// open starts the job on a fresh coordinator and grants its one open
	// tile.
	open := func(t testing.TB, rec walRecord) (*Coordinator, *job, LeaseGrant) {
		rec.SNPs, rec.Samples = sess.SNPs(), sess.Samples()
		co := NewCoordinator(Config{})
		j := newJob(rec)
		co.jobs[j.id], co.order = j, []string{j.id}
		g, ok := co.grantLocked(LeaseRequest{Worker: "w"}, time.Now())
		if !ok || len(g.Granted) != 1 {
			t.Fatalf("grant of the open tile: ok=%v %+v", ok, g)
		}
		return co, j, g
	}

	// Seeds: each kind's real payload of the planted matrix — a search
	// tile's Report both as the JSON object and in the binary form — what
	// a decoder may meet instead, and stage-1 scores whose best list is
	// shorter than their seen list.
	for _, seed := range []string{``, `null`, `{}`, `"not a payload"`, `"AQ=="`, `"AQNjcHUA"`, `{"snps":24}`, `{"snps":[[3,9,15],[0,1]],"stream":2,"count":40}`} {
		f.Add([]byte(seed))
	}
	for _, rec := range jobs {
		_, _, g := open(f, rec)
		g.BinaryReports = false
		res := tileResults(f, sess, []LeaseGrant{g})[0]
		real := *grantKind(&g).field(&res)
		f.Add([]byte(real))
		if grantKind(&g) == searchKind {
			g.BinaryReports = true
			bin := tileResults(f, sess, []LeaseGrant{g})[0].Report
			f.Add([]byte(bin))
			f.Add([]byte(string(bin[:len(bin)/2]) + `"`))
		}
		var scores trigene.ScreenScores
		if g.Stage == screenKind.stage && json.Unmarshal(real, &scores) == nil {
			scores.Best = scores.Best[:len(scores.Best)-1]
			short, _ := json.Marshal(scores)
			f.Add(short)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range jobs {
			co, j, g := open(t, rec)
			res := TileResult{Token: g.Token}
			*grantKind(&g).field(&res) = data
			st, _ := co.completeLocked(res, time.Now())
			switch st.Status {
			case TileInvalid:
				if j.leases.Done() != 0 || j.partials[g.Tile] != nil || j.state != StateRunning {
					t.Fatalf("%s refused (%s) but counted: %d done, state %s", g.Stage, st.Error, j.leases.Done(), j.state)
				}
			case TileAccepted:
				// The one tile was the phase: its close ran, and either
				// moved the job on or failed it with a reason.
				if j.leases.Done() != 1 || (j.state == StateRunning && j.open != 1) || (j.state == StateFailed && j.err == "") {
					t.Fatalf("accepted, yet %d done, phase %d open, state %s (%q)", j.leases.Done(), j.open, j.state, j.err)
				}
			default:
				t.Fatalf("verdict %+v on the tile's live lease", st)
			}
		}
	})
}

// FuzzSubmitRequest posts arbitrary bodies to POST /v1/jobs of an
// in-memory coordinator on which a running job holds the planted
// dataset. Whatever the body, the coordinator answers without panicking
// and without a 5xx, and accepts a submission (201) only when it
// decodes and either carries a dataset that decodes or names the held
// one by hash; the accepted job's status is then readable.
func FuzzSubmitRequest(f *testing.F) {
	mx := plantedMatrix(f)
	sess := sessionFor(f, mx)
	var pack bytes.Buffer
	if err := sess.WritePack(&pack); err != nil {
		f.Fatal(err)
	}
	held := sess.DatasetHash()
	bin := binaryOf(f, mx)
	for _, req := range []SubmitRequest{
		{Tiles: 2, DatasetSHA256: held},
		{Tiles: 2, Spec: trigene.SearchSpec{Order: 2, TopK: 3}, DatasetSHA256: held},
		{Tiles: 1, Spec: trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: [][]int{{3, 9, 15}}, Permutations: 10}}, DatasetSHA256: held},
		{Tiles: 2, ScreenTiles: 1, Spec: trigene.SearchSpec{Screen: &trigene.ScreenSpec{MaxSurvivors: 8}}, DatasetSHA256: held},
		{Tiles: 1, Dataset: bin},
		{Tiles: 1, Dataset: pack.Bytes(), DatasetSHA256: held},
		{Tiles: 1, Dataset: bin[:len(bin)/2]},
		{Tiles: 1, DatasetSHA256: "../" + held[3:]},
		{Tiles: 1, DatasetSHA256: held[:63]},
		{Tiles: 1},
	} {
		f.Add([]byte(mustJSON(f, req)))
	}
	// C(1734, 7) is the first space of order 7 past an int64: a search of
	// it, and a screen that may keep every SNP, are refused with a 400.
	overflow := trigene.NewMatrix(1734, 8)
	for j := 0; j < 8; j += 2 {
		overflow.SetPhen(j, 1)
	}
	wide := binaryOf(f, overflow)
	for _, spec := range []trigene.SearchSpec{{Order: 7}, {Order: 7, Screen: &trigene.ScreenSpec{MaxSurvivors: 1734}}} {
		body := mustJSON(f, SubmitRequest{Tiles: 4, Spec: spec, Dataset: wide})
		rec := httptest.NewRecorder()
		NewCoordinator(Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusBadRequest {
			f.Fatalf("order 7 over 1734 SNPs, screen %+v: HTTP %d %s, want 400", spec.Screen, rec.Code, rec.Body.String())
		}
		f.Add([]byte(body))
	}
	for _, seed := range []string{``, `null`, `{}`, `[]`, `{"tiles":1e9,"datasetSHA256":"` + held + `"}`, `{"tiles":-1}`} {
		f.Add([]byte(seed))
	}
	// An upload whose header names 2^24 x 2^24 genotypes.
	f.Add([]byte(mustJSON(f, SubmitRequest{Tiles: 1, Dataset: hugeHeader})))
	// Orders outside [2, 7] are refused at the door, a negative one too:
	// the space check counts C(n, order) only for an order in range.
	for _, order := range []int{-1, 1, 8} {
		f.Add([]byte(mustJSON(f, SubmitRequest{Tiles: 2, Spec: trigene.SearchSpec{Order: order}, DatasetSHA256: held})))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		co := NewCoordinator(Config{})
		j := newJob(walRecord{Job: "j0", Spec: &trigene.SearchSpec{}, Tiles: 1, SHA: held, SNPs: sess.SNPs(), Samples: sess.Samples()})
		j.dataset = pack.Bytes()
		co.jobs[j.id], co.order = j, []string{j.id}

		rec := httptest.NewRecorder()
		co.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusCreated {
			return
		}
		var req SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		switch {
		case len(req.Dataset) == 0 && req.DatasetSHA256 != held:
			t.Fatalf("accepted a reference to %q, which is not held", req.DatasetSHA256)
		case len(req.Dataset) > 0 && !decodes(req.Dataset):
			t.Fatal("accepted an upload that does not decode")
		}
		var resp SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		co.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+resp.ID, nil))
		var st JobStatus
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.ID != resp.ID || st.State != StateRunning {
			t.Fatalf("status of accepted job %s: HTTP %d %s", resp.ID, rec.Code, rec.Body.String())
		}
	})
}

// decodes reports whether an uploaded dataset reads as a pack or as a
// valid dataset in the trigene binary format.
func decodes(data []byte) bool {
	if store.IsPack(data) {
		_, err := trigene.ReadPack(bytes.NewReader(data))
		return err == nil
	}
	mx, err := trigene.ReadBinary(bytes.NewReader(data))
	if err == nil {
		_, err = trigene.NewSession(mx)
	}
	return err == nil
}
