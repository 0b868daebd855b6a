package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"trigene"
	"trigene/internal/datafile"
)

// startDaemon runs `trigened serve` on an ephemeral port and returns
// the scraped base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-quiet", "-lease-ttl", "5s"}, pw, io.Discard)
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading serve banner: %v", err)
	}
	url, ok := strings.CutPrefix(strings.TrimSpace(line), "serving on ")
	if !ok {
		t.Fatalf("unexpected serve banner %q", line)
	}
	go io.Copy(io.Discard, pr)
	waitReady(t, url)
	return url
}

// waitReady blocks until the daemon answers 200 on /v1/healthz. It
// listens (and answers health probes) before journal recovery finishes,
// so a submit right after the banner would race the recovering
// coordinator's 503s.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/healthz")
		if err == nil {
			ready := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ready {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready on /v1/healthz")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startCLIWorkers runs n `trigened worker` loops against the daemon.
func startCLIWorkers(t *testing.T, url string, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(ctx, []string{"worker", "-coordinator", url, "-poll", "5ms", "-quiet"},
				io.Discard, io.Discard); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// writeDataset writes the planted test dataset to disk in the trigene
// text format and returns its path and matrix.
func writeDataset(t *testing.T) (string, *trigene.Matrix) {
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
	path := filepath.Join(t.TempDir(), "data.tg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trigene.WriteText(f, mx); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, mx
}

// TestTrigenedEndToEnd drives the full CLI surface against an
// in-process daemon: submit -wait prints a Report bit-exact with the
// local run, status sees the finished job, and result re-prints the
// same JSON.
func TestTrigenedEndToEnd(t *testing.T) {
	url := startDaemon(t)
	startCLIWorkers(t, url, 2)
	path, mx := writeDataset(t)
	ctx := context.Background()

	var out bytes.Buffer
	err := run(ctx, []string{"submit", "-coordinator", url, "-in", path,
		"-name", "e2e", "-tiles", "5", "-topk", "4", "-workers", "2", "-wait"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(out.String(), "\n", 2)
	if !strings.HasPrefix(lines[0], "submitted j") {
		t.Fatalf("submit banner %q", lines[0])
	}
	jobID := strings.Fields(lines[0])[1]
	var rep trigene.Report
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatalf("submit -wait output is not a Report: %v\n%s", err, lines[1])
	}

	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Search(ctx, trigene.WithTopK(4), trigene.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TopK) != 4 || rep.Best.Score != local.Best.Score || rep.Combinations != local.Combinations {
		t.Errorf("cluster report %v/%d, local %v/%d",
			rep.Best.SNPs, rep.Combinations, local.Best.SNPs, local.Combinations)
	}
	for i := range local.TopK {
		if rep.TopK[i].Score != local.TopK[i].Score {
			t.Errorf("top-%d score %.12f != %.12f", i+1, rep.TopK[i].Score, local.TopK[i].Score)
		}
	}

	// status: the queue and the single job both show it done.
	out.Reset()
	if err := run(ctx, []string{"status", "-coordinator", url}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "e2e") || !strings.Contains(out.String(), "done") {
		t.Errorf("status output:\n%s", out.String())
	}
	out.Reset()
	if err := run(ctx, []string{"status", "-coordinator", url, "-job", jobID, "-json"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var st struct {
		State string `json:"state"`
		Done  int    `json:"done"`
	}
	if err := json.Unmarshal(out.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Done != 5 {
		t.Errorf("status -json: %+v", st)
	}

	// result: byte-identical Report JSON to the submit -wait output.
	out.Reset()
	if err := run(ctx, []string{"result", "-coordinator", url, "-job", jobID}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.String() != lines[1] {
		t.Errorf("result output differs from submit -wait output:\n%s\n%s", out.String(), lines[1])
	}
}

// TestTrigenedCancel: a job with no workers is cancelled and reports
// it.
func TestTrigenedCancel(t *testing.T) {
	url := startDaemon(t)
	path, _ := writeDataset(t)
	ctx := context.Background()

	var out bytes.Buffer
	if err := run(ctx, []string{"submit", "-coordinator", url, "-in", path, "-tiles", "2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	jobID := strings.Fields(out.String())[1]
	out.Reset()
	if err := run(ctx, []string{"cancel", "-coordinator", url, "-job", jobID}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(ctx, []string{"status", "-coordinator", url, "-job", jobID}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cancelled") {
		t.Errorf("status after cancel:\n%s", out.String())
	}
	if err := run(ctx, []string{"result", "-coordinator", url, "-job", jobID}, io.Discard, io.Discard); err == nil {
		t.Error("result of a cancelled job succeeded")
	}
}

// TestTrigenedErrors covers the CLI's loud failures.
func TestTrigenedErrors(t *testing.T) {
	ctx := context.Background()
	cases := [][]string{
		{},
		{"bogus-mode"},
		{"worker"},                      // missing -coordinator
		{"submit", "-in", "x"},          // missing -coordinator
		{"submit", "-coordinator", "x"}, // missing -in
		{"result", "-coordinator", "x"}, // missing -job
		{"cancel", "-coordinator", "x"}, // missing -job
		{"status"},                      // missing -coordinator
	}
	for _, args := range cases {
		if err := run(ctx, args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// help is not an error.
	if err := run(ctx, []string{"help"}, io.Discard, io.Discard); err != nil {
		t.Errorf("help: %v", err)
	}
}

// startDurableDaemon runs `trigened serve -state-dir` on the given
// address and returns the scraped base URL plus an explicit stop (also
// registered as cleanup) so a test can restart the daemon mid-job.
func startDurableDaemon(t *testing.T, addr, stateDir string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", addr, "-quiet", "-lease-ttl", "2s",
			"-retain", "8", "-state-dir", stateDir}, pw, io.Discard)
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading serve banner: %v", err)
	}
	url, ok := strings.CutPrefix(strings.TrimSpace(line), "serving on ")
	if !ok {
		t.Fatalf("unexpected serve banner %q", line)
	}
	go io.Copy(io.Discard, pr)
	waitReady(t, url)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	t.Cleanup(stop)
	return url, stop
}

// TestTrigenedRestartRecovery is the CLI acceptance path for the
// durable coordinator: a daemon with -state-dir goes down mid-job and
// a fresh daemon on the same state dir (and address, so the CLI
// workers reconnect on their own) finishes the job to a Report
// bit-exact with the local run.
func TestTrigenedRestartRecovery(t *testing.T) {
	stateDir := t.TempDir()
	path, mx := writeDataset(t)
	ctx := context.Background()

	url, stop := startDurableDaemon(t, "127.0.0.1:0", stateDir)
	startCLIWorkers(t, url, 2)

	var out bytes.Buffer
	err := run(ctx, []string{"submit", "-coordinator", url, "-in", path,
		"-name", "durable", "-tiles", "6", "-topk", "4", "-workers", "2"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	jobID := strings.Fields(out.String())[1]

	// Wait for partial progress, then take the daemon down mid-job.
	waitStatus := func(url string, pred func(state string, done int) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			out.Reset()
			err := run(ctx, []string{"status", "-coordinator", url, "-job", jobID, "-json"}, &out, io.Discard)
			if err == nil {
				var st struct {
					State string `json:"state"`
					Done  int    `json:"done"`
				}
				if err := json.Unmarshal(out.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				if st.State == "failed" || st.State == "cancelled" {
					t.Fatalf("job %s %s while waiting for %s", jobID, st.State, what)
				}
				if pred(st.State, st.Done) {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitStatus(url, func(_ string, done int) bool { return done >= 1 }, "partial progress")
	stop()

	// Same address, same state dir: the workers' retry loops reconnect
	// and the recovered queue finishes the job.
	url2, _ := startDurableDaemon(t, strings.TrimPrefix(url, "http://"), stateDir)
	if url2 != url {
		t.Fatalf("restarted daemon at %s, want %s", url2, url)
	}
	waitStatus(url2, func(state string, _ int) bool { return state == "done" }, "completion after restart")

	out.Reset()
	if err := run(ctx, []string{"result", "-coordinator", url2, "-job", jobID}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep trigene.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("result output is not a Report: %v\n%s", err, out.String())
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Search(ctx, trigene.WithTopK(4), trigene.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TopK) != len(local.TopK) || rep.Combinations != local.Combinations {
		t.Fatalf("recovered report %d combinations / top-%d, local %d / top-%d",
			rep.Combinations, len(rep.TopK), local.Combinations, len(local.TopK))
	}
	for i := range local.TopK {
		if rep.TopK[i].Score != local.TopK[i].Score {
			t.Errorf("top-%d score %.12f != %.12f", i+1, rep.TopK[i].Score, local.TopK[i].Score)
		}
	}

	// The state dir has the advertised layout.
	if _, err := os.Stat(filepath.Join(stateDir, "snapshot.snap")); err != nil {
		t.Errorf("snapshot missing from state dir: %v", err)
	}
	if matches, _ := filepath.Glob(filepath.Join(stateDir, "journal-*.wal")); len(matches) != 1 {
		t.Errorf("journal files in state dir: %v", matches)
	}

	// status -workers reports heartbeat ages for the reconnected fleet.
	// The registry is not journaled: a worker is back in it with its next
	// lease request or heartbeat, which a job finished on completions of
	// recovered leases need not have waited for — so wait for it here.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		out.Reset()
		if err := run(ctx, []string{"status", "-coordinator", url2, "-workers"}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(out.String()) != "no workers" || time.Now().After(deadline) {
			break
		}
	}
	if !strings.Contains(out.String(), "seen") || !strings.Contains(out.String(), "ago") {
		t.Errorf("status -workers output lacks heartbeat ages:\n%s", out.String())
	}
}

// TestTrigenedPermSubmit: a -perm job runs end to end against CLI
// workers — submit prints the permutation banner, status sees the job
// through, and the result's perm block is bit-exact with the local
// bit-plane kernel. Bad perm specs fail loudly before upload.
func TestTrigenedPermSubmit(t *testing.T) {
	url := startDaemon(t)
	startCLIWorkers(t, url, 2)
	path, mx := writeDataset(t)
	ctx := context.Background()

	var out bytes.Buffer
	err := run(ctx, []string{"submit", "-coordinator", url, "-in", path,
		"-name", "perm", "-tiles", "5", "-workers", "2",
		"-perm", "3,9,15;0,1", "-perms", "200", "-perm-seed", "17", "-wait"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(out.String(), "\n", 2)
	if !strings.Contains(lines[0], "2 candidates, 200 permutations over 5 tiles") {
		t.Errorf("submit banner %q", lines[0])
	}
	jobID := strings.Fields(lines[0])[1]
	var rep trigene.Report
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatalf("submit -wait output is not a Report: %v\n%s", err, lines[1])
	}
	if rep.Perm == nil {
		t.Fatal("merged Report has no perm block")
	}
	if rep.Perm.Permutations != 200 || rep.Perm.Seed != 17 || rep.Perm.Tiles != 5 {
		t.Errorf("perm block %d permutations seed %d over %d tiles, want 200/17/5",
			rep.Perm.Permutations, rep.Perm.Seed, rep.Perm.Tiles)
	}

	// Bit-exact with the local batched kernel under the same seed.
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.PermutationTestAll(ctx, [][]int{{3, 9, 15}, {0, 1}},
		trigene.WithPermutations(200), trigene.WithSeed(17), trigene.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Perm.Results) != len(local) {
		t.Fatalf("perm block carries %d results, want %d", len(rep.Perm.Results), len(local))
	}
	for i, pc := range rep.Perm.Results {
		if pc.Observed != local[i].Observed || pc.AsGoodOrBetter != local[i].AsGoodOrBetter || pc.PValue != local[i].PValue {
			t.Errorf("candidate %v: cluster %+v != local %+v", pc.SNPs, pc, *local[i])
		}
	}

	// status and result agree on the finished job.
	out.Reset()
	if err := run(ctx, []string{"status", "-coordinator", url, "-job", jobID}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "done") {
		t.Errorf("status output:\n%s", out.String())
	}
	out.Reset()
	if err := run(ctx, []string{"result", "-coordinator", url, "-job", jobID}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.String() != lines[1] {
		t.Errorf("result output differs from submit -wait output:\n%s\n%s", out.String(), lines[1])
	}

	// Loud client-side validation: nothing is uploaded for a bad spec.
	for _, args := range [][]string{
		{"submit", "-coordinator", url, "-in", path, "-perm", " ; "},
		{"submit", "-coordinator", url, "-in", path, "-perm", "9,3"},
		{"submit", "-coordinator", url, "-in", path, "-perm", "3,900"},
		{"submit", "-coordinator", url, "-in", path, "-perm", "3;9"},
		{"submit", "-coordinator", url, "-in", path, "-perm", "3,x"},
		{"submit", "-coordinator", url, "-in", path, "-perm", "3,9", "-screen-survivors", "10"},
		{"submit", "-coordinator", url, "-in", path, "-perm", "3,9", "-order", "4"},
		{"submit", "-coordinator", url, "-in", path, "-perm", "3,9", "-backend", "hetero"},
	} {
		if err := run(ctx, args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args[5:])
		}
	}
}

// TestTrigenedPermRestartRecovery: a durable coordinator goes down with
// a permutation job in flight; a fresh daemon on the same state dir and
// address recovers the journaled per-range scores and finishes the job
// to p-values bit-exact with the local run.
func TestTrigenedPermRestartRecovery(t *testing.T) {
	stateDir := t.TempDir()
	path, mx := writeDataset(t)
	ctx := context.Background()

	url, stop := startDurableDaemon(t, "127.0.0.1:0", stateDir)
	startCLIWorkers(t, url, 2)

	var out bytes.Buffer
	err := run(ctx, []string{"submit", "-coordinator", url, "-in", path,
		"-name", "perm-durable", "-tiles", "8", "-workers", "2",
		"-perm", "3,9,15;2,5,7,11", "-perms", "400", "-perm-seed", "5"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	jobID := strings.Fields(out.String())[1]

	waitStatus := func(url string, pred func(state string, done int) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			out.Reset()
			err := run(ctx, []string{"status", "-coordinator", url, "-job", jobID, "-json"}, &out, io.Discard)
			if err == nil {
				var st struct {
					State string `json:"state"`
					Done  int    `json:"done"`
				}
				if err := json.Unmarshal(out.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				if st.State == "failed" || st.State == "cancelled" {
					t.Fatalf("job %s %s while waiting for %s", jobID, st.State, what)
				}
				if pred(st.State, st.Done) {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitStatus(url, func(_ string, done int) bool { return done >= 1 }, "partial progress")
	stop()

	url2, _ := startDurableDaemon(t, strings.TrimPrefix(url, "http://"), stateDir)
	if url2 != url {
		t.Fatalf("restarted daemon at %s, want %s", url2, url)
	}
	waitStatus(url2, func(state string, _ int) bool { return state == "done" }, "completion after restart")

	out.Reset()
	if err := run(ctx, []string{"result", "-coordinator", url2, "-job", jobID}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep trigene.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("result output is not a Report: %v\n%s", err, out.String())
	}
	if rep.Perm == nil {
		t.Fatal("recovered Report has no perm block")
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.PermutationTestAll(ctx, [][]int{{3, 9, 15}, {2, 5, 7, 11}},
		trigene.WithPermutations(400), trigene.WithSeed(5), trigene.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Perm.Results) != len(local) {
		t.Fatalf("perm block carries %d results, want %d", len(rep.Perm.Results), len(local))
	}
	for i, pc := range rep.Perm.Results {
		if pc.Observed != local[i].Observed || pc.AsGoodOrBetter != local[i].AsGoodOrBetter || pc.PValue != local[i].PValue {
			t.Errorf("candidate %v: recovered %+v != local %+v", pc.SNPs, pc, *local[i])
		}
	}
}

// TestTrigenedScreenedSubmit: a -screen-survivors job runs as two
// phases end to end against CLI workers, the merged Report carries
// the screen audit trail, and bad screen specs fail loudly before
// the dataset is uploaded.
func TestTrigenedScreenedSubmit(t *testing.T) {
	url := startDaemon(t)
	startCLIWorkers(t, url, 2)
	path, mx := writeDataset(t)
	ctx := context.Background()

	var out bytes.Buffer
	err := run(ctx, []string{"submit", "-coordinator", url, "-in", path,
		"-name", "screened", "-tiles", "4", "-topk", "4", "-workers", "2",
		"-screen-survivors", "10", "-wait"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(out.String(), "\n", 2)
	if !strings.Contains(lines[0], "screen tiles") {
		t.Errorf("submit banner %q lacks the screen phase", lines[0])
	}
	var rep trigene.Report
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatalf("submit -wait output is not a Report: %v\n%s", err, lines[1])
	}
	if rep.Screen == nil {
		t.Fatal("merged Report has no screen audit trail")
	}
	if rep.Screen.Survivors != 10 {
		t.Errorf("screen survivors %d, want 10", rep.Screen.Survivors)
	}

	// The screened cluster run must agree with the screened local run.
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Search(ctx, trigene.WithTopK(4), trigene.WithWorkers(2),
		trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best.Score != local.Best.Score {
		t.Errorf("cluster best %v (%.12f), local %v (%.12f)",
			rep.Best.SNPs, rep.Best.Score, local.Best.SNPs, local.Best.Score)
	}

	// Loud client-side validation: nothing is uploaded for a bad spec.
	for _, args := range [][]string{
		{"submit", "-coordinator", url, "-in", path, "-screen-survivors", "-2"},
		{"submit", "-coordinator", url, "-in", path, "-screen-survivors", "1000"},
		{"submit", "-coordinator", url, "-in", path, "-screen-seeds", "3"},
	} {
		if err := run(ctx, args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args[5:])
		}
	}
}

// TestTrigenedPack: `trigened pack` writes the source session's .tpack
// byte for byte; the file opens with OpenPack under the source's
// content hash and searches to the source session's Report. A copy cut
// short by one byte is refused.
func TestTrigenedPack(t *testing.T) {
	path, _ := writeDataset(t)
	out := filepath.Join(t.TempDir(), "data.tpack")
	ctx := context.Background()
	if err := run(ctx, []string{"pack", "-in", path, "-out", out}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	src, err := datafile.ReadSession(path, "auto", "")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var want bytes.Buffer
	if err := src.WritePack(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("pack wrote %d bytes, the source session packs to %d (or they differ)", len(got), want.Len())
	}

	packed, err := trigene.OpenPack(out)
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Close()
	if packed.DatasetHash() != src.DatasetHash() {
		t.Errorf("pack hash %.12s…, source %.12s…", packed.DatasetHash(), src.DatasetHash())
	}
	fromPack, err := packed.Search(ctx, trigene.WithTopK(5))
	if err != nil {
		t.Fatal(err)
	}
	fromSrc, err := src.Search(ctx, trigene.WithTopK(5))
	if err != nil {
		t.Fatal(err)
	}
	fromPack.Duration, fromPack.ElementsPerSec = 0, 0
	fromSrc.Duration, fromSrc.ElementsPerSec = 0, 0
	if !reflect.DeepEqual(fromPack, fromSrc) {
		t.Errorf("pack Report %+v, source %+v", fromPack, fromSrc)
	}

	short := filepath.Join(t.TempDir(), "short.tpack")
	if err := os.WriteFile(short, got[:len(got)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := trigene.OpenPack(short); err == nil {
		s.Close()
		t.Error("OpenPack accepted a truncated .tpack")
	}
}
