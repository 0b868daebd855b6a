package cluster

import (
	"encoding/json"
	"testing"
	"time"

	"trigene"
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
