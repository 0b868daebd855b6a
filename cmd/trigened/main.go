// trigened is the cluster service daemon: one binary fronting every
// role of the distributed tile-leasing deployment.
//
//	trigened serve  -addr :9321                 # run the coordinator
//	trigened serve  -addr :9321 -state-dir /var/lib/trigene  # durable: journal + snapshots
//	trigened worker -coordinator http://c:9321  # contribute a worker
//	trigened worker -coordinator http://c:9321 -capacity 8          # weighted leasing
//	trigened worker -coordinator http://c:9321 -cache-entries 8 -cache-dir /var/cache/trigene
//	trigened pack   -in data.tg -out data.tpack # pack a dataset offline
//	trigened submit -coordinator http://c:9321 -in data.tg -tiles 64 -name scan1
//	trigened submit -coordinator http://c:9321 -in data.tg -backend gpusim:GN1 -order 2
//	trigened submit -coordinator http://c:9321 -in data.tg -wait    # block, print the Report
//	trigened submit -coordinator http://c:9321 -in data.tg -screen-survivors 128  # two-stage screened job
//	trigened submit -coordinator http://c:9321 -in data.tg -perm "3,9,15;0,1" -perms 10000  # distributed permutation test
//	trigened status -coordinator http://c:9321 [-job j1]            # queue / one job
//	trigened status -coordinator http://c:9321 -workers             # capability registry
//	trigened result -coordinator http://c:9321 -job j1              # merged Report JSON
//	trigened cancel -coordinator http://c:9321 -job j1
//
// A job is one Session.Search configuration cut into tiles; workers
// lease tiles under heartbeat-renewed deadlines and the coordinator
// merges their Reports bit-exactly (see the README's "Cluster
// architecture" section). submit takes epistasis's search flags
// (-backend, -order, -approach, -screen-*, …): both tools build
// the same trigene.SearchSpec from them, and `trigened result` emits
// the same stable Report JSON as `epistasis -json`. A screened job
// (-screen-survivors) runs as two phases: the pairwise pre-scan is
// sharded across workers first, the coordinator merges the scan and
// pins the survivor set, and only then do stage-2 triple tiles lease
// out; the merged Report carries the audit trail under "screen". A
// permutation job (-perm) shards the permutation index range instead:
// workers evaluate contiguous relabeling ranges with the bit-plane
// kernel and the coordinator sums their hit counts into p-values
// bit-exact with a single-node run (the result's "perm" block).
//
// submit names the dataset by its content hash and uploads it only when
// the coordinator does not hold it, so resubmitting a dataset the
// coordinator still holds sends the spec alone.
//
// With -state-dir the coordinator is durable: every state transition
// is journaled, and a crashed (even SIGKILLed) coordinator restarted
// on the same directory resumes its jobs without re-executing
// completed tiles. Workers drain elastically: the first SIGTERM lets
// the current tile batch finish, hands remaining leases back for
// immediate re-issue and exits 0; a second SIGTERM (or SIGINT)
// cancels outright.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"trigene"
	"trigene/internal/cluster"
	"trigene/internal/datafile"
	"trigene/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trigened: ")
	// Workers intercept SIGTERM themselves (first drains, second
	// cancels — see runWorker); every other mode treats it as a stop.
	sigs := []os.Signal{os.Interrupt, syscall.SIGTERM}
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		sigs = []os.Signal{os.Interrupt}
	}
	ctx, stop := signal.NotifyContext(context.Background(), sigs...)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the testable tool body.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return fmt.Errorf("missing mode")
	}
	mode, rest := args[0], args[1:]
	switch mode {
	case "serve":
		return runServe(ctx, rest, stdout, stderr)
	case "worker":
		return runWorker(ctx, rest, stdout, stderr)
	case "pack":
		return runPack(rest, stdout, stderr)
	case "submit":
		return runSubmit(ctx, rest, stdout, stderr)
	case "status":
		return runStatus(ctx, rest, stdout, stderr)
	case "result":
		return runResult(ctx, rest, stdout, stderr)
	case "cancel":
		return runCancel(ctx, rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return nil
	default:
		usage(stderr)
		return fmt.Errorf("unknown mode %q", mode)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: trigened <mode> [flags]

modes:
  serve    run the coordinator (job queue + tile leases)
  worker   lease and execute tiles against a coordinator
  pack     write a dataset in the packed .tpack format (2-bit genotypes
           under their content hash; loads without a parse)
  submit   submit a search spec over a dataset as a job (the dataset's
           bytes go only if the coordinator does not hold its hash)
  status   show the job queue, or one job
  result   print a finished job's merged Report JSON
  cancel   cancel a running job

run "trigened <mode> -h" for that mode's flags.`)
}

// ---------------------------------------------------------------------
// serve

// newLogger builds a structured daemon logger from the -log-level and
// -log-format flag values.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// discardLogger suppresses daemon logging (-quiet).
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// healthzHandler answers GET /v1/healthz from the probe callback:
// 200 {"status":"ok"} when ready, 503 with the probe's status (e.g.
// "starting", "draining") when not, so orchestrators can gate traffic
// on readiness rather than on mere liveness.
func healthzHandler(probe func() (status string, ready bool)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		status, ready := probe()
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "{\"status\":%q}\n", status)
	})
}

// serveDebug exposes net/http/pprof on its own listener (empty addr =
// off). Registration is explicit so the profiling surface never leaks
// onto the service address.
func serveDebug(addr string, logger *slog.Logger) error {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	logger.Info("pprof debug server listening", "addr", ln.Addr().String())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			logger.Warn("debug server exited", "error", err)
		}
	}()
	return nil
}

func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trigened serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":9321", "listen address")
	ttl := fs.Duration("lease-ttl", 15*time.Second, "tile lease duration; workers renew at a third of it")
	attempts := fs.Int("max-attempts", 5, "lease re-issues per tile before the job fails")
	retain := fs.Int("retain", 64, "finished jobs kept (with results) before eviction")
	stateDir := fs.String("state-dir", "", "durability root: journal every state transition there and recover from it on start (empty = in-memory)")
	snapEvery := fs.Int("snapshot-every", 256, "fewest journal records between state snapshots; a snapshot also waits until the journal is as large as the last one, so recovery reads at most about twice the live state (with -state-dir)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this extra address (empty = off)")
	quiet := fs.Bool("quiet", false, "suppress per-event logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *quiet {
		logger = discardLogger()
	}
	cfg := cluster.Config{
		LeaseTTL:      *ttl,
		MaxAttempts:   *attempts,
		Retain:        *retain,
		Logger:        logger,
		StateDir:      *stateDir,
		SnapshotEvery: *snapEvery,
	}
	reg := obs.NewRegistry()
	// Listen (and answer health probes) before recovery: a durable
	// coordinator replaying a long journal reports "starting" on
	// /v1/healthz instead of refusing connections.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is machine-readable (tests and scripts
	// bind to port 0 and scrape it).
	fmt.Fprintf(stdout, "serving on http://%s\n", ln.Addr())
	var coord atomic.Pointer[cluster.Coordinator]
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/v1/healthz", healthzHandler(func() (string, bool) {
		if coord.Load() == nil {
			return "starting", false
		}
		return "ok", true
	}))
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		co := coord.Load()
		if co == nil {
			http.Error(w, "coordinator recovering", http.StatusServiceUnavailable)
			return
		}
		co.ServeHTTP(w, req)
	})
	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var co *cluster.Coordinator
	if *stateDir != "" {
		if co, err = cluster.Recover(cfg); err != nil {
			srv.Close()
			return err
		}
		defer co.Close()
	} else {
		co = cluster.NewCoordinator(cfg)
	}
	// Instrument after recovery so WAL replay does not count as live
	// traffic; publishing the pointer flips /v1/healthz to ready.
	co.Instrument(reg)
	coord.Store(co)
	if err := serveDebug(*debugAddr, logger); err != nil {
		srv.Close()
		return err
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			// The graceful drain ran out of patience — typically a
			// connection a client transport dialed but never used,
			// which Shutdown only reaps after a long grace period.
			// Force-close the stragglers; all real requests had their
			// two seconds.
			return srv.Close()
		}
		return nil
	}
}

// ---------------------------------------------------------------------
// worker

func runWorker(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trigened worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	id := fs.String("id", "", "worker name in coordinator logs (default host:pid)")
	capacity := fs.Float64("capacity", 0, "advertised relative capability for weighted leasing (0 = this host's core count); fast workers get proportionally bigger tile batches")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle wait between lease attempts")
	cacheEntries := fs.Int("cache-entries", 4, "bound of the in-memory per-dataset Session LRU")
	cacheDir := fs.String("cache-dir", "", "directory persisting fetched datasets as <hash>.tpack (empty = off)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /v1/healthz on this address (empty = off)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this extra address (empty = off)")
	quiet := fs.Bool("quiet", false, "suppress per-tile logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		fs.Usage()
		return fmt.Errorf("missing required -coordinator")
	}
	if *capacity == 0 {
		*capacity = float64(runtime.GOMAXPROCS(0))
	}
	if *capacity < 0 {
		return fmt.Errorf("capacity must be positive, got %g", *capacity)
	}
	logger, err := newLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *quiet {
		logger = discardLogger()
	}
	if *cacheEntries < 1 {
		return fmt.Errorf("cache-entries must be at least 1, got %d", *cacheEntries)
	}
	w := &cluster.Worker{
		Client:       cluster.NewClient(*coord),
		ID:           *id,
		Capacity:     *capacity,
		Poll:         *poll,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		Logger:       logger,
	}
	reg := obs.NewRegistry()
	w.Instrument(reg)
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/v1/healthz", healthzHandler(func() (string, bool) {
			if w.Draining() {
				return "draining", false
			}
			return "ok", true
		}))
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics on http://%s\n", mln.Addr())
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				logger.Warn("metrics server exited", "error", err)
			}
		}()
	}
	if err := serveDebug(*debugAddr, logger); err != nil {
		return err
	}
	// Elastic drain: the first SIGTERM lets the running tile finish
	// and every finished result post, hands the remaining leases back
	// for immediate re-issue and exits 0; a second SIGTERM cancels outright (SIGINT always
	// cancels, via ctx).
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	term := make(chan os.Signal, 2)
	signal.Notify(term, syscall.SIGTERM)
	defer signal.Stop(term)
	go func() {
		select {
		case <-term:
		case <-wctx.Done():
			return
		}
		logger.Info("SIGTERM: draining — finishing the current tile (SIGTERM again to cancel)")
		w.Drain(wctx)
		select {
		case <-term:
			cancel()
		case <-wctx.Done():
		}
	}()
	fmt.Fprintf(stdout, "worker polling %s\n", *coord)
	if err := w.Run(wctx); err != nil && err != context.Canceled {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------
// submit

func runSubmit(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trigened submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	sf := datafile.BindSearchFlags(fs)
	name := fs.String("name", "", "human-readable job label")
	tiles := fs.Int("tiles", 16, "lease units the search space is cut into")
	maxWorkers := fs.Int("max-workers", 0, "cap how many distinct workers may hold live leases on this job at once (0 = unlimited)")
	deadline := fs.Duration("deadline", 0, "wall-clock budget from submission; the coordinator fails the job past it (0 = none)")
	perm := fs.String("perm", "", "submit a permutation test instead of a search: candidate combinations as 'i,j,k[;i,j...]' (SNP indices); tiles shard the permutation range")
	perms := fs.Int("perms", 0, "with -perm: number of phenotype relabelings (0 = default 1000)")
	permSeed := fs.Int64("perm-seed", 0, "with -perm: RNG seed behind the permutation stream")
	wait := fs.Bool("wait", false, "block until the job finishes and print its Report JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: trigened submit -coordinator URL -in FILE [flags]

Submits a search (or with -perm a permutation test) over the dataset in
FILE as a job. The dataset is named by its content hash first; its bytes
are uploaded, packed, only when the coordinator does not hold that hash
already (a running job's dataset, or on a durable coordinator a retained
job's pack).

flags:`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxWorkers < 0 || *deadline < 0 {
		return fmt.Errorf("-max-workers and -deadline must be ≥ 0")
	}
	if *coord == "" || sf.In == "" {
		fs.Usage()
		return fmt.Errorf("missing required -coordinator / -in")
	}
	sess, err := datafile.ReadSession(sf.In, sf.Format, sf.Phen)
	if err != nil {
		return err
	}
	defer sess.Close()
	// Spec checks a screen client-side for a friendly error (the
	// coordinator re-validates at the door): survivor sets larger than
	// the dataset fail before any bytes are uploaded.
	spec, err := sf.Spec(sess.SNPs())
	if err != nil {
		return err
	}
	spec.MaxWorkers = *maxWorkers
	spec.DeadlineMillis = deadline.Milliseconds()
	if *perm != "" {
		// A permutation job re-scores fixed candidates; the search-shaping
		// flags do not combine with it (the coordinator re-rejects at the
		// door, this just fails before any bytes are uploaded).
		if spec.Screen != nil || spec.Order != 0 || spec.Approach != "" ||
			(spec.Backend != "" && spec.Backend != "cpu") {
			return fmt.Errorf("-perm does not combine with -screen-survivors/-order/-approach or a non-cpu -backend")
		}
		snps, err := parsePermCandidates(*perm)
		if err != nil {
			return err
		}
		ps := trigene.PermSpec{SNPs: snps, Permutations: *perms, Seed: *permSeed}
		if err := ps.Validate(sess.SNPs()); err != nil {
			return err
		}
		spec.Perm = &ps
		spec.Order, spec.TopK = 0, 0
		if *tiles > ps.PermutationCount() {
			*tiles = ps.PermutationCount()
		}
	}
	cl := cluster.NewClient(*coord)
	id, err := cl.SubmitSession(ctx, sess, spec, *tiles, *name)
	if err != nil {
		return err
	}
	switch {
	case spec.Perm != nil:
		fmt.Fprintf(stdout, "submitted %s (%d candidates, %d permutations over %d tiles)\n",
			id, len(spec.Perm.SNPs), spec.Perm.PermutationCount(), *tiles)
	case spec.Screen != nil:
		fmt.Fprintf(stdout, "submitted %s (%d screen tiles + %d search tiles)\n", id, *tiles, *tiles)
	default:
		fmt.Fprintf(stdout, "submitted %s (%d tiles)\n", id, *tiles)
	}
	if !*wait {
		return nil
	}
	rep, err := cl.Wait(ctx, id)
	if err != nil {
		return err
	}
	return writeJSON(stdout, rep)
}

// parsePermCandidates parses the -perm flag value: candidate
// combinations separated by ';', SNP indices within one separated by
// ',' — e.g. "3,9,15;0,1".
func parsePermCandidates(s string) ([][]int, error) {
	var out [][]int
	for _, combo := range strings.Split(s, ";") {
		combo = strings.TrimSpace(combo)
		if combo == "" {
			continue
		}
		var snps []int
		for _, tok := range strings.Split(combo, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad -perm candidate %q: %v", combo, err)
			}
			snps = append(snps, n)
		}
		out = append(out, snps)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-perm names no candidate combinations")
	}
	return out, nil
}

// ---------------------------------------------------------------------
// pack

func runPack(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trigened pack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input dataset path (required; '-' for stdin)")
	informat := fs.String("informat", "auto", datafile.FormatsHelp)
	phenPath := fs.String("phen", "", "phenotype file for VCF input (one 0/1 per sample)")
	out := fs.String("out", "", "output .tpack path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("missing required -in / -out")
	}
	sess, err := datafile.ReadSession(*in, *informat, *phenPath)
	if err != nil {
		return err
	}
	defer sess.Close()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = sess.WritePack(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "packed %d SNPs x %d samples into %s (hash %.12s…)\n",
		sess.SNPs(), sess.Samples(), *out, sess.DatasetHash())
	return nil
}

// ---------------------------------------------------------------------
// status / result / cancel

func runStatus(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trigened status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	job := fs.String("job", "", "job ID (default: list the whole queue)")
	workers := fs.Bool("workers", false, "list the per-worker capability registry instead of jobs")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		fs.Usage()
		return fmt.Errorf("missing required -coordinator")
	}
	cl := cluster.NewClient(*coord)
	if *workers {
		ws, err := cl.Workers(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(stdout, cluster.WorkerList{Workers: ws})
		}
		if len(ws) == 0 {
			fmt.Fprintln(stdout, "no workers")
			return nil
		}
		for _, w := range ws {
			rate := "-"
			if w.TilesPerSec > 0 {
				rate = fmt.Sprintf("%.2f tiles/s", w.TilesPerSec)
			}
			// Heartbeat age tells an operator at a glance which workers
			// are live, which are presumed dead, and which are leaving.
			health := fmt.Sprintf("seen %s ago", (time.Duration(w.AgeMs) * time.Millisecond).Round(time.Millisecond))
			if w.Stale {
				health += " STALE"
			}
			if w.Draining {
				health += " draining"
			}
			fmt.Fprintf(stdout, "%-24s cap %-6.4g %-14s %d/%d tiles done  %s\n",
				w.ID, w.Capacity, rate, w.Completed, w.Granted, health)
		}
		return nil
	}
	if *job != "" {
		st, err := cl.Status(ctx, *job)
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(stdout, st)
		}
		printStatus(stdout, *st)
		return nil
	}
	jobs, err := cl.Jobs(ctx)
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSON(stdout, cluster.JobList{Jobs: jobs})
	}
	if len(jobs) == 0 {
		fmt.Fprintln(stdout, "no jobs")
		return nil
	}
	// The queue-depth header mirrors the coordinator's
	// trigene_coord_queue_tiles gauge: unfinished tiles across running
	// jobs.
	running, pending := 0, 0
	for _, st := range jobs {
		if st.State == cluster.StateRunning {
			running++
			pending += st.Tiles - st.Done
		}
	}
	fmt.Fprintf(stdout, "queue: %d running, %d tiles pending\n", running, pending)
	for _, st := range jobs {
		printStatus(stdout, st)
	}
	return nil
}

func printStatus(w io.Writer, st cluster.JobStatus) {
	label := st.ID
	if st.Name != "" {
		label += " (" + st.Name + ")"
	}
	extra := ""
	switch {
	case st.State == cluster.StateRunning:
		age := time.Since(time.UnixMilli(st.SubmittedUnixMs)).Round(time.Second)
		extra = fmt.Sprintf(", %d leased, age %s", st.Leased, age)
	case st.Error != "":
		extra = ": " + st.Error
	case st.DurationMs > 0:
		extra = fmt.Sprintf(" in %.0f ms", st.DurationMs)
	}
	fmt.Fprintf(w, "%-24s %-9s %d/%d tiles%s\n", label, st.State, st.Done, st.Tiles, extra)
}

func runResult(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trigened result", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	job := fs.String("job", "", "job ID (required)")
	wait := fs.Bool("wait", false, "block until the job finishes instead of failing while it runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" || *job == "" {
		fs.Usage()
		return fmt.Errorf("missing required -coordinator / -job")
	}
	cl := cluster.NewClient(*coord)
	var rep *trigene.Report
	var err error
	if *wait {
		rep, err = cl.Wait(ctx, *job)
	} else {
		rep, err = cl.Result(ctx, *job)
	}
	if err != nil {
		return err
	}
	return writeJSON(stdout, rep)
}

func runCancel(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trigened cancel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
	job := fs.String("job", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" || *job == "" {
		fs.Usage()
		return fmt.Errorf("missing required -coordinator / -job")
	}
	if err := cluster.NewClient(*coord).Cancel(ctx, *job); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cancelled %s\n", *job)
	return nil
}

// ---------------------------------------------------------------------
// shared helpers

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
