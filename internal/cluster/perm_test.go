package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"trigene"
	"trigene/internal/wal"
)

// TestClusterPermParity is the permutation-job acceptance gate: a
// coordinator and loopback workers produce per-candidate hit counts and
// p-values bit-exact with the single-node bit-plane kernel, through
// both the PermExecutor surface and the public WithCluster option. The
// odd tile count exercises uneven permutation ranges.
func TestClusterPermParity(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	cl.Tiles = 7
	startWorkers(t, cl, 3)
	ctx := context.Background()

	candidates := [][]int{{3, 9, 15}, {0, 1}, {2, 5, 7, 11}}
	opts := []trigene.Option{trigene.WithPermutations(120), trigene.WithSeed(42), trigene.WithWorkers(2)}

	local, err := sess.PermutationTestAll(ctx, candidates, opts...)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sess.PermutationTestAll(ctx, candidates, append(opts, trigene.WithCluster(cl))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("cluster returned %d results, want %d", len(remote), len(local))
	}
	for i := range local {
		if *remote[i] != *local[i] {
			t.Errorf("candidate %v: cluster %+v != local %+v", candidates[i], *remote[i], *local[i])
		}
	}

	// The executor surface directly: the Report's Perm block carries the
	// same merged counts.
	spec := trigene.SearchSpec{
		Perm: &trigene.PermSpec{SNPs: candidates, Permutations: 120, Seed: 42},
	}
	rep, err := cl.ExecutePerm(ctx, mx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Perm == nil {
		t.Fatal("perm job Report carries no Perm block")
	}
	if rep.Perm.Permutations != 120 || rep.Perm.Seed != 42 {
		t.Errorf("Perm block = %d permutations seed %d, want 120/42", rep.Perm.Permutations, rep.Perm.Seed)
	}
	if rep.Perm.Tiles != 7 {
		t.Errorf("Perm block merged %d tiles, want 7", rep.Perm.Tiles)
	}
	if len(rep.Perm.Results) != len(local) {
		t.Fatalf("Perm block carries %d results, want %d", len(rep.Perm.Results), len(local))
	}
	for i, pc := range rep.Perm.Results {
		want := local[i]
		if pc.Observed != want.Observed || pc.AsGoodOrBetter != want.AsGoodOrBetter || pc.PValue != want.PValue {
			t.Errorf("candidate %v: cluster %+v != local %+v", candidates[i], pc, *want)
		}
	}
}

// TestClusterPermJSONRoundTrip: the Perm block survives the stable
// Report wire format (the same codec `trigened result` emits).
func TestClusterPermJSONRoundTrip(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	cl.Tiles = 4
	startWorkers(t, cl, 2)

	spec := trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: [][]int{{3, 9, 15}}, Permutations: 60, Seed: 7}}
	rep, err := cl.ExecutePerm(context.Background(), mx, spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back trigene.Report
	if err := back.UnmarshalJSON(raw); err != nil {
		t.Fatal(err)
	}
	if back.Perm == nil || len(back.Perm.Results) != 1 {
		t.Fatalf("Perm block lost in round trip: %+v", back.Perm)
	}
	got, want := back.Perm.Results[0], rep.Perm.Results[0]
	if got.Observed != want.Observed || got.AsGoodOrBetter != want.AsGoodOrBetter || got.PValue != want.PValue {
		t.Errorf("round-tripped result %+v != %+v", got, want)
	}
}

// TestClusterPermSubmitValidation: malformed permutation submissions
// are rejected at the door, not discovered by workers.
func TestClusterPermSubmitValidation(t *testing.T) {
	mx := plantedMatrix(t)
	cl, _ := newTestCluster(t, Config{LeaseTTL: time.Second})
	ctx := context.Background()

	cases := []struct {
		name  string
		spec  trigene.SearchSpec
		tiles int
		want  string
	}{
		{"no candidates", trigene.SearchSpec{Perm: &trigene.PermSpec{}}, 2, "no candidate combinations"},
		{"order 1", trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: [][]int{{5}}}}, 2, "order"},
		{"unsorted", trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: [][]int{{9, 3}}}}, 2, "increasing"},
		{"out of range", trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: [][]int{{3, 900}}}}, 2, "out of range"},
		{"with screen", trigene.SearchSpec{
			Perm:   &trigene.PermSpec{SNPs: [][]int{{3, 9}}},
			Screen: &trigene.ScreenSpec{MaxSurvivors: 8},
		}, 2, "do not combine"},
		{"with order", trigene.SearchSpec{Order: 3, Perm: &trigene.PermSpec{SNPs: [][]int{{3, 9}}}}, 2, "do not combine"},
		{"too many tiles", trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: [][]int{{3, 9}}, Permutations: 4}}, 5, "must not exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.Submit(ctx, mx, tc.spec, tc.tiles, "")
			if err == nil {
				t.Fatal("submit accepted, want rejection")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestClusterPermRefusesForeignStream: hit counts drawn from another
// permutation stream never reach a p-value. A range without the
// "stream" field is what a worker of a release before the field posts
// and what such a release's journal holds. Posted live it is refused at
// the door and its tile stays open; found in the journal on recovery it
// fails the job — the alternative is finishing the job with this
// build's workers and summing two streams' hits.
func TestClusterPermRefusesForeignStream(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := Config{LeaseTTL: 5 * time.Second, StateDir: t.TempDir()}
	cl, proxy, _ := newDurableCluster(t, cfg)

	candidates := [][]int{{3, 9, 15}, {0, 1}}
	spec := trigene.SearchSpec{Perm: &trigene.PermSpec{SNPs: candidates, Permutations: 60, Seed: 5}}
	id, err := cl.Submit(ctx, mx, spec, 2, "mixed fleet")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := sess.PermutationSlice(ctx, candidates, 0, 30, trigene.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	foreign.Stream = 0 // omitted on the wire
	raw, err := json.Marshal(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "stream") {
		t.Fatalf("stream-less range still carries the field: %s", raw)
	}

	g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "old-release"})
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if _, err := cl.completePerm(ctx, g.Granted[0].Token, foreign); err == nil || !strings.Contains(err.Error(), "permutation stream 1") {
		t.Fatalf("stream-less range posted live: err = %v, want a permutation stream refusal", err)
	}
	if st, err := cl.Status(ctx, id); err != nil || st.State != StateRunning || st.Done != 0 {
		t.Fatalf("after the refused post: %+v, %v", st, err)
	}

	// The same range as a journal record, appended behind the crashed
	// coordinator's back.
	proxy.crash()
	l, err := wal.Open(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(walRecord{T: recComplete, Job: id, Tile: 0, Perm: raw})
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
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "permutation stream 1") {
		t.Fatalf("job with a stream-1 range in its journal recovered as %+v, want failed on the stream", st)
	}

	// The typed error is what every one of those paths surfaces.
	var se *trigene.PermStreamError
	if err := foreign.ValidateShape(); !errors.As(err, &se) || se.Got != 1 {
		t.Errorf("ValidateShape on a stream-less range = %v, want a PermStreamError with Got 1", err)
	}
}
