package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trigene/internal/cluster"
	"trigene/internal/obs"
)

// loopback is an in-process cluster: a durable coordinator (WAL under
// stateDir) behind a real HTTP listener, and P workers leasing tiles from
// it over that listener. Untraced runs serve the Coordinator directly;
// traced runs put a counting and timing tap in front of it.
type loopback struct {
	co     *cluster.Coordinator
	srv    *httptest.Server
	cl     *cluster.Client
	tap    *httpTap      // nil on untraced runs
	coReg  *obs.Registry // coordinator + WAL series (traced runs)
	wkReg  *obs.Registry // worker series, shared by all workers (traced runs)
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

const clusterPoll = 5 * time.Millisecond

// startLoopback recovers a coordinator on stateDir and starts serving. With
// rec non-nil the run is traced: registries are attached and every request
// passes through the tap. Workers are started separately so set-up calls
// can be timed against an idle coordinator first.
func startLoopback(stateDir string, rec *recorder) (*loopback, error) {
	co, err := cluster.Recover(cluster.Config{LeaseTTL: 10 * time.Second, StateDir: stateDir})
	if err != nil {
		return nil, fmt.Errorf("recovering coordinator on %s: %w", stateDir, err)
	}
	lb := &loopback{co: co}
	var handler http.Handler = co
	if rec != nil {
		lb.coReg, lb.wkReg = obs.NewRegistry(), obs.NewRegistry()
		co.Instrument(lb.coReg)
		lb.tap = &httpTap{next: co, rec: rec, leased: map[string]time.Time{}, busy: map[string]float64{}}
		handler = lb.tap
	}
	lb.srv = httptest.NewServer(handler)
	lb.cl = cluster.NewClient(lb.srv.URL)
	lb.cl.Poll = clusterPoll
	return lb, nil
}

// startWorkers launches p workers, each running one tile at a time.
func (lb *loopback) startWorkers(p int) {
	ctx, cancel := context.WithCancel(context.Background())
	lb.cancel = cancel
	for i := 0; i < p; i++ {
		w := &cluster.Worker{Client: lb.cl, ID: fmt.Sprintf("bench-w%d", i), Poll: clusterPoll}
		w.Instrument(lb.wkReg)
		lb.wg.Add(1)
		go func() {
			defer lb.wg.Done()
			_ = w.Run(ctx) // returns ctx's error on cancel: the only way this loop stops
		}()
	}
}

// close stops the workers, the listener and the journal, in that order,
// and waits for each.
func (lb *loopback) close() error {
	if lb.cancel != nil {
		lb.cancel()
		lb.wg.Wait()
	}
	lb.srv.Close()
	http.DefaultClient.CloseIdleConnections()
	return lb.co.Close()
}

// httpTap counts and times every request to the coordinator by route, and
// measures per tile the time from the lease response to the matching
// completion request. Each request is also a span under the span named by
// parent (set by the driver around Submit/Wait/ExecutePerm).
type httpTap struct {
	next   http.Handler
	rec    *recorder
	parent atomic.Int64 // span ID the request spans hang under
	rep    atomic.Int64

	mu           sync.Mutex
	requests     int64
	bytesIn      int64
	bytesOut     int64
	busy         map[string]float64   // seconds inside the handler, by route
	leased       map[string]time.Time // lease token -> when its grant left
	turnaroundMs []float64
}

// tapRoutes are the routes whose handler time is reported. Heartbeats (lease
// renewals) are counted and timed too, but tiles here finish long before a
// renewal is due, so their handler time would read 0 on every run.
var tapRoutes = []string{"submit", "lease", "complete", "dataset", "status"}

// routeOf maps a /v1 request to one of tapRoutes; token is the lease token
// of renew/done/fail calls.
func routeOf(r *http.Request) (route, token string) {
	path := strings.TrimPrefix(r.URL.Path, "/v1/")
	parts := strings.Split(path, "/")
	switch {
	case path == "jobs" && r.Method == http.MethodPost:
		return "submit", ""
	case path == "lease":
		return "lease", ""
	case parts[0] == "lease" && len(parts) == 3 && parts[2] == "renew":
		return "heartbeat", parts[1]
	case parts[0] == "lease" && len(parts) == 3:
		return "complete", parts[1] // done or fail
	case parts[0] == "jobs" && len(parts) == 3 && parts[2] == "dataset":
		return "dataset", ""
	}
	return "status", "" // job list/status/result/cancel, worker registry
}

type countingWriter struct {
	http.ResponseWriter
	n    int64
	keep *bytes.Buffer // non-nil: also keep the body (lease grants)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	if w.keep != nil {
		w.keep.Write(p[:n])
	}
	return n, err
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (t *httpTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route, token := routeOf(r)
	if route == "complete" {
		t.mu.Lock()
		if at, ok := t.leased[token]; ok {
			t.turnaroundMs = append(t.turnaroundMs, float64(start.Sub(at))/1e6)
			delete(t.leased, token)
		}
		t.mu.Unlock()
	}
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	if route == "lease" {
		cw.keep = &bytes.Buffer{}
	}
	t.next.ServeHTTP(cw, r)
	end := time.Now()

	var tokens []string
	if cw.keep != nil && cw.keep.Len() > 0 {
		var g cluster.LeaseGrant
		if json.Unmarshal(cw.keep.Bytes(), &g) == nil && g.Token != "" {
			tokens = append(tokens, g.Token)
			for _, tg := range g.Granted {
				if tg.Token != g.Token {
					tokens = append(tokens, tg.Token)
				}
			}
		}
	}
	t.mu.Lock()
	t.requests++
	t.bytesIn += body.n
	t.bytesOut += cw.n
	t.busy[route] += end.Sub(start).Seconds()
	for _, tok := range tokens {
		t.leased[tok] = end
	}
	t.mu.Unlock()
	t.rec.add(int(t.parent.Load()), int(t.rep.Load()), "cluster.http."+route, start, end)
}

// under makes spans of requests served from now on children of parent.
func (t *httpTap) under(parent, rep int) {
	if t != nil {
		t.parent.Store(int64(parent))
		t.rep.Store(int64(rep))
	}
}

// reset forgets everything counted so far (the set-up submissions), so
// that the counts cover the repetitions only.
func (t *httpTap) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests, t.bytesIn, t.bytesOut = 0, 0, 0
	t.busy = map[string]float64{}
	t.turnaroundMs = nil
}
