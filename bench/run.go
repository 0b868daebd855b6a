package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"trigene/internal/obs"
)

// runConfig describes one run of one workload.
type runConfig struct {
	w       workloadDef
	seed    int64
	seconds float64
	trace   bool
	// workdir is the scratch root; the run works in a fresh directory
	// below it and removes that directory when it ends.
	workdir string
	// genInChild generates the input in a child process, so that the
	// generator's memory never counts towards peak_rss_mb.
	genInChild bool
	// spansPath, on traced runs, is where the span file goes ("" = none).
	spansPath string
	// memSet is the working set of the memory-bound AND3 loop of a traced
	// run, in bytes: memSetBytes, or less in the smoke test.
	memSet int
}

// runResult is what one run reports. Correct/Attempted/Failed/Metrics are
// the driver's contract; Dist carries the full distribution behind every
// metric that is a median.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   metricSet          `json:"metrics"`
	Dist      map[string]summary `json:"dist,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// putDist records a metric as the median of its samples and keeps the
// distribution.
func (r *runResult) putDist(name, unit string, samples []float64) {
	r.Metrics.put(name, unit, median(samples))
	r.keep(name, samples)
}

// keep puts samples, in the order measured, into the run's record.
func (r *runResult) keep(name string, samples []float64) {
	s := summarize(samples)
	s.Samples = samples
	r.Dist[name] = s
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// opsPerRep: a repetition is a search (or search job) and a permutation
// test (or job) — the operations failed_ratio counts.
const opsPerRep = 2

func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.genInChild {
		err = generateInChild(ctx, cfg, dir)
	} else {
		err = generateInputs(cfg.w, cfg.seed, dir)
	}
	if err != nil {
		return nil, err
	}
	host = gauge{}
	res := &runResult{
		Workload: cfg.w.Name, Seed: cfg.seed, Traced: cfg.trace,
		Metrics: metricSet{}, Dist: map[string]summary{},
	}
	if cfg.trace {
		err = runTraced(ctx, cfg, dir, res)
	} else {
		err = runEndToEnd(ctx, cfg, dir, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.Name, err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// generateInChild re-executes this binary in generator mode and waits for
// it to end.
func generateInChild(ctx context.Context, cfg runConfig, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "-gen", "-workload", cfg.w.Name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-workdir", dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("input generator: %w", err)
	}
	return nil
}

// baseline is the closed loop every run starts with, through the public
// API and with no tracing: the first repetition is dropped (warm-up on the
// warm workloads, OS file cache on pipeline-cold), then rounds of two
// repetitions and more set-up calls until keepGoing says stop. With refs a
// round also makes a one-worker reference search: the traced run's scaling
// baseline, which would take two fifths of an end-to-end run's time.
type baseline struct {
	setups []timing
	first  repResult
	reps   []repResult
	refs   []timing
}

func runBaseline(ctx context.Context, j job, refs bool, keepGoing func(b *baseline) bool) (*baseline, error) {
	b := &baseline{}
	var err error
	if b.setups, err = j.open(ctx); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if b.first, err = j.rep(ctx); err != nil {
		return nil, fmt.Errorf("first repetition: %w", err)
	}
	for step := 0; keepGoing(b); step++ {
		if step%3 == 2 {
			if refs {
				ref, err := j.ref(ctx)
				if err != nil {
					return nil, err
				}
				b.refs = append(b.refs, ref)
			}
			more, err := j.setups(ctx)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			b.setups = append(b.setups, more...)
			continue
		}
		r, err := j.rep(ctx)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(b.reps)+1, err)
		}
		b.reps = append(b.reps, r)
	}
	return b, nil
}

// samplesOf takes one value from each of xs.
func samplesOf[E, T any](xs []E, f func(E) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// searches and perms are the repetitions' search and permutation-test
// timings.
func (b *baseline) searches() []timing {
	return samplesOf(b.reps, func(r repResult) timing { return r.searchT })
}

func (b *baseline) perms() []timing {
	return samplesOf(b.reps, func(r repResult) timing { return r.permT })
}

// gelemsPerS is the paper's throughput for a search of the given duration
// over combos combinations of a dataset of the given sample count.
func gelemsPerS(combos int64, samples int, searchS float64) float64 {
	return float64(combos) * float64(samples) / searchS / 1e9
}

// efficiency is the one-worker search time over P times the P-worker (or
// cluster) search time, both at reference speed: 1.0 is perfect scaling
// from the plain single-threaded baseline. A round's reference search
// follows its two repetitions, so both sample the same states of the host.
func (b *baseline) efficiency() float64 {
	return refSeconds(b.refs) / (float64(workers()) * refSeconds(b.searches()))
}

// check runs the oracles over the baseline: the first repetition against
// the references, every other against the first.
func (b *baseline) check(o *oracle, res *runResult) {
	res.Attempted += opsPerRep*(1+len(b.reps)) + len(b.refs)
	if err := o.checkReport(b.first.report); err != nil {
		res.fail("first repetition: %v", err)
	}
	for i, r := range b.reps {
		if err := sameOutcome(b.first, r); err != nil {
			res.fail("repetition %d differs from the first: %v", i+1, err)
		}
	}
}

// endToEnd fills in the metrics a user of the system sees. Times and rates
// are at reference speed (gauge.go): every one is a refSeconds over the
// run's calls. The wall times and the gauge's readings go into the run's
// record beside them.
func (b *baseline) endToEnd(w workloadDef, res *runResult) {
	setups := append([]timing(nil), b.setups...)
	for _, r := range b.reps {
		if r.setupT.wall > 0 {
			setups = append(setups, r.setupT)
		}
	}
	searchS, permS := refSeconds(b.searches()), refSeconds(b.perms())
	m := res.Metrics
	m.put("setup_s", "s", refSeconds(setups))
	m.put("solve_s", "s", searchS+permS)
	m.put("gelems_per_s", "Gelem/s", gelemsPerS(b.first.combos, w.Samples, searchS))
	m.put("perm_per_s", "1/s", float64(len(b.first.perm)*w.Perms)/permS)
	for name, ts := range map[string][]timing{"setup_s": setups, "search_s": b.searches(), "perm_s": b.perms()} {
		res.keep("wall."+name, samplesOf(ts, func(t timing) float64 { return t.wall }))
		res.keep("scaled."+name, scaled(ts))
	}
	res.keep("host.speed", host.all)
}

func runEndToEnd(ctx context.Context, cfg runConfig, dir string, res *runResult) error {
	j := newJob(cfg.w, dir, nil)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// The high-water mark creeps up with every operation (about 0.1 MiB
	// each on triples-wide), so it is read after a fixed amount of work —
	// the first repetition and rssReps more — not after however many
	// repetitions this host fitted into the run.
	const rssReps = 4
	var rss float64
	var rssErr error
	b, err := runBaseline(ctx, j, false, func(b *baseline) bool {
		if len(b.reps) < rssReps {
			return true
		}
		if rss == 0 && rssErr == nil {
			rss, rssErr = peakRSSMiB()
		}
		return time.Now().Before(deadline)
	})
	if err == nil {
		err = rssErr
	}
	if err != nil {
		j.close()
		return err
	}
	b.endToEnd(cfg.w, res)
	res.Metrics.put("peak_rss_mb", "MiB", rss)
	if err := j.close(); err != nil {
		return err
	}
	o, err := newOracle(cfg.w, cfg.seed)
	if err != nil {
		return err
	}
	b.check(o, res)
	return nil
}

// tracedClusterReps is how many traced repetitions the cluster layer
// runs: two 576-tile repetitions put more than 1000 samples under the
// tile-turnaround distribution, so its 99th percentile has ten beyond it.
const tracedClusterReps = 2

func runTraced(ctx context.Context, cfg runConfig, dir string, res *runResult) error {
	w, m := cfg.w, res.Metrics

	// 1. Untraced baseline of this process: what tracing overhead and
	// scaling are measured against.
	j := newJob(w, dir, nil)
	b, err := runBaseline(ctx, j, true, func(b *baseline) bool { return len(b.reps) < 2 || len(b.refs) < 1 })
	if err != nil {
		j.close()
		return err
	}
	if err := j.close(); err != nil {
		return err
	}
	o, err := newOracle(w, cfg.seed)
	if err != nil {
		return err
	}
	b.check(o, res)
	untracedSolve := median(samplesOf(b.reps, repResult.solveS))
	m.put("sched.scaling_eff", "ratio", b.efficiency())

	// 2. The traced repetition, driven layer by layer. On cluster-loopback
	// it is the cluster layer below.
	rec := newRecorder()
	reg := obs.NewRegistry()
	var traced []repResult
	var roots []int
	if w.Kind != clustered {
		tj := newJob(w, dir, rec)
		if _, err := tj.open(ctx); err != nil {
			return fmt.Errorf("traced repetition: %w", err)
		}
		defer tj.close()
		if w.Kind == warm { // lazy state built, as for the repetitions it is compared with
			if _, err := tj.rep(ctx); err != nil {
				return fmt.Errorf("traced repetition: warm-up: %w", err)
			}
		}
		root, end := rec.start(0, 1, "job")
		r, err := tj.traced(ctx, traceCtx{rec: rec, root: root, rep: 1, reg: reg})
		end()
		if err != nil {
			return fmt.Errorf("traced repetition: %w", err)
		}
		traced, roots = append(traced, r), append(roots, root)
	}

	// 3. Isolated layer loops on the workload's own data.
	env := layerEnv{
		w: w, mx: o.mx, dir: dir, report: b.first.report,
		budget: time.Duration(cfg.seconds / 80 * float64(time.Second)),
		memSet: cfg.memSet,
	}
	layers, err := measureLayers(ctx, env, m)
	if err != nil {
		return err
	}
	packPath := layers.packPath
	m.put("plan.pred_over_measured", "ratio",
		layers.predicted/gelemsPerS(b.first.combos, w.Samples, refSeconds(b.searches())))

	// 4. The cluster layer: traced search + permutation jobs on a tapped,
	// instrumented loopback cluster, each paired with the same work in one
	// process.
	if w.Kind == clustered {
		packPath = w.inputPath(dir)
	}
	cj := &clusterJob{w: w, path: packPath, stateDir: filepath.Join(dir, "coord-traced"), rec: rec}
	clusterReps, clusterRoots, err := measureCluster(ctx, cj, rec, len(roots), env, b.first, res)
	if err != nil {
		return fmt.Errorf("cluster layer: %w", err)
	}
	if w.Kind == clustered {
		traced, roots = clusterReps, clusterRoots
	}

	// 5. Oracles: the layer-by-layer repetition against the untraced run
	// (measureCluster has already checked the cluster's), and the scalar
	// permutation spot check.
	if w.Kind != clustered {
		res.Attempted += opsPerRep
		if err := sameOutcome(b.first, traced[0]); err != nil {
			res.fail("traced repetition differs from the untraced run: %v", err)
		}
	}
	res.Attempted++
	if err := o.checkPermScalar(b.first.report.Objective, b.first.report.TopK[0].SNPs, layers.perm); err != nil {
		res.fail("scalar permutation oracle: %v", err)
	}

	// 6. What the traced repetition says about the attribution itself, and
	// the counters the program exposes.
	var tracedSolve, coverage []float64
	for i, r := range traced {
		tracedSolve = append(tracedSolve, r.solveS())
		coverage = append(coverage, rec.coverage(roots[i]))
	}
	m.put("obs.trace_overhead_frac", "fraction", (median(tracedSolve)-untracedSolve)/untracedSolve)
	m.put("trace.coverage", "fraction", median(coverage))
	series, reps := scrape(reg), 1.0
	if w.Kind == clustered {
		series, reps = scrape(cj.lb.wkReg), tracedClusterReps
	}
	m.put("store.builds", "count", series["trigene_store_builds_total"]/reps)
	m.put("sched.tiles_claimed", "count", series["trigene_sched_tiles_claimed_total"]/reps)
	// The grain of the space the search claims from: block triples for the
	// default approach.
	grain, ok := series[`trigene_sched_grain{space="blocked"}`]
	if !ok {
		grain = series[`trigene_sched_grain{space="flat"}`] // sharded cluster tiles default to V2
	}
	m.put("sched.grain", "ranks", grain)
	m.put("failed_ratio", "fraction", float64(res.Failed)/float64(res.Attempted))
	// Which of its states the host was in while the baseline above ran; the
	// per-layer times are wall times, not scaled by it.
	m.put("host.speed", "ratio", median(host.all))

	if cfg.spansPath != "" {
		if err := rec.writeJSON(cfg.spansPath); err != nil {
			return err
		}
	}
	return nil
}

// measureCluster opens the traced cluster job, runs tracedClusterReps
// repetitions (each followed by the same work in one process), and turns
// the tap, the registries and the pairings into the cluster.* and wal.*
// metrics, per repetition. It returns the repetitions and their root spans.
func measureCluster(ctx context.Context, cj *clusterJob, rec *recorder, repBase int, env layerEnv, want repResult, res *runResult) ([]repResult, []int, error) {
	m := res.Metrics
	if _, err := cj.open(ctx); err != nil {
		return nil, nil, err
	}
	defer cj.close()
	lb := cj.lb
	before := scrape(lb.coReg, lb.wkReg)
	lb.tap.reset()

	var reps []repResult
	var roots []int
	var efficiency []float64
	var jobWall float64 // search + permutation job walls, summed
	for i := 0; i < tracedClusterReps; i++ {
		repID := repBase + i + 1
		root, end := rec.start(0, repID, "job")
		r, err := cj.traced(ctx, traceCtx{rec: rec, root: root, rep: repID})
		end()
		if err != nil {
			return nil, nil, err
		}
		// The first pairing runs the whole job in one process (the reference
		// the cluster's Report and p-values must equal); later ones only
		// the search, which is all cluster.efficiency needs.
		local, err := cj.local(ctx, i == 0)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 {
			local.perm = r.perm
		}
		res.Attempted += 2 * opsPerRep
		if err := sameOutcome(local, r); err != nil {
			res.fail("cluster repetition %d differs from the single-process run: %v", i+1, err)
		}
		if err := sameOutcome(want, local); err != nil {
			res.fail("single-process reference %d differs from the untraced run: %v", i+1, err)
		}
		reps, roots = append(reps, r), append(roots, root)
		efficiency = append(efficiency, local.searchT.wall/r.searchT.wall)
		jobWall += r.solveS()
	}
	n := float64(len(reps))
	res.putDist("cluster.submit_s", "s", samplesOf(reps, func(r repResult) float64 { return r.setupT.wall }))
	res.putDist("cluster.wait_s", "s", samplesOf(reps, func(r repResult) float64 { return r.searchT.wall }))
	res.putDist("cluster.efficiency", "ratio", efficiency)

	tap := lb.tap
	tap.mu.Lock()
	m.put("cluster.http_requests", "count", float64(tap.requests)/n)
	m.put("cluster.http_bytes_in", "bytes", float64(tap.bytesIn)/n)
	m.put("cluster.http_bytes_out", "bytes", float64(tap.bytesOut)/n)
	for _, route := range tapRoutes {
		m.put("cluster.handler_busy_s."+route, "s", tap.busy[route]/n)
	}
	turnaround := append([]float64(nil), tap.turnaroundMs...)
	tap.mu.Unlock()
	res.Dist["cluster.tile_turnaround_ms"] = summarize(turnaround)
	m.put("cluster.tile_turnaround_ms_p50", "ms", median(turnaround))
	m.put("cluster.tile_turnaround_ms_p99", "ms", percentile(turnaround, 0.99))

	after := scrape(lb.coReg, lb.wkReg)
	delta := func(name string) float64 { return after[name] - before[name] }
	m.put("cluster.worker_busy_frac", "fraction",
		delta("trigene_worker_tile_seconds_sum")/(float64(workers())*jobWall))
	granted, completed := delta("trigene_coord_leases_granted_total"), delta("trigene_coord_tiles_completed_total")
	m.put("cluster.leases_granted", "count", granted/n)
	m.put("cluster.tiles_completed", "count", completed/n)
	m.put("cluster.leases_reissued", "count", delta("trigene_coord_leases_reissued_total")/n)
	m.put("cluster.completions_discarded", "count", delta("trigene_coord_completions_discarded_total")/n)
	m.put("cluster.useful_ratio", "ratio", completed/granted)
	appends, appendBytes := delta("trigene_wal_appends_total"), delta("trigene_wal_append_bytes_total")
	m.put("wal.appends", "count", appends/n)
	m.put("wal.append_bytes", "bytes", appendBytes/n)
	m.put("wal.fsyncs", "count", delta("trigene_wal_fsyncs_total")/n)
	m.put("wal.fsync_s", "s", delta("trigene_wal_fsync_seconds_sum")/n)
	if err := measureWAL(env, int(appendBytes/max(appends, 1)), m); err != nil {
		return nil, nil, fmt.Errorf("wal layer: %w", err)
	}
	return reps, roots, cj.close()
}

// contractLine is the JSON object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (r *runResult) contract() contractLine {
	return contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}
