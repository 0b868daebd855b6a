package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"trigene"
	"trigene/internal/datafile"
	"trigene/internal/obs"
)

// traceCtx places one traced repetition in the span tree: spans hang under
// root, carry rep, and the program's own counters land in reg.
type traceCtx struct {
	rec  *recorder
	root int
	rep  int
	reg  *obs.Registry
}

// call times fn as one span named after the layer it calls into and
// returns the seconds it took.
func (tc traceCtx) call(name string, fn func(span int) error) (float64, error) {
	id, end := tc.rec.start(tc.root, tc.rep, name)
	start := time.Now()
	err := fn(id)
	d := time.Since(start).Seconds()
	end()
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// foldTrace adds the program's own Report.Trace spans (plan, encode,
// search, merge) as children of the span that made the Search call.
func (tc traceCtx) foldTrace(parent int, callStart time.Time, rep *trigene.Report) {
	if rep == nil || rep.Trace == nil {
		return
	}
	for _, sp := range rep.Trace.Spans {
		s := callStart.Add(time.Duration(sp.StartNs))
		tc.rec.add(parent, tc.rep, "trigene."+sp.Name, s, s.Add(time.Duration(sp.DurationNs)))
	}
}

// tracedSearch is a Search call as a span, with WithTrace/WithMetrics on.
func (tc traceCtx) tracedSearch(ctx context.Context, name string, sess *trigene.Session, opts []trigene.Option) (*trigene.Report, float64, error) {
	var rep *trigene.Report
	d, err := tc.call(name, func(span int) (err error) {
		start := time.Now()
		rep, err = sess.Search(ctx, append(opts, trigene.WithTrace(), trigene.WithMetrics(tc.reg))...)
		tc.foldTrace(span, start, rep)
		return err
	})
	return rep, d, err
}

func (tc traceCtx) tracedPerm(ctx context.Context, w workloadDef, sess *trigene.Session, res *repResult) (err error) {
	res.permT.wall, err = tc.call("permtest.kall", func(int) (err error) {
		res.perm, err = sess.PermutationTestAll(ctx, candidatesOf(res.report),
			w.permOpts(workers(), trigene.WithMetrics(tc.reg))...)
		return err
	})
	return err
}

// traced for the warm workloads: store.pack_open -> store.hash (one more
// set-up call, closed again) -> engine.search -> permtest.kall on the
// job's own warm Session, as the untraced repetitions run.
func (j *warmJob) traced(ctx context.Context, tc traceCtx) (repResult, error) {
	var res repResult
	var fresh *trigene.Session
	openS, err := tc.call("store.pack_open", func(int) (err error) {
		fresh, err = trigene.OpenPack(j.path)
		return err
	})
	if err != nil {
		return res, err
	}
	hashS, _ := tc.call("store.hash", func(int) error { fresh.DatasetHash(); return nil })
	fresh.Close()
	res.setupT.wall = openS + hashS
	if res.report, res.searchT.wall, err = tc.tracedSearch(ctx, "engine.search", j.sess, j.w.searchOpts(workers())); err != nil {
		return res, err
	}
	res.combos = evaluated(res.report)
	return res, tc.tracedPerm(ctx, j.w, j.sess, &res)
}

// traced for pipeline-cold: dataset.parse -> store.new -> store.hash ->
// store.encode -> engine.pairscan -> screen.select -> engine.stage2 ->
// permtest.kall. store.encode forces the lazy encodings through
// Session.WritePack into io.Discard (the one exported call that builds
// them without searching), so it also carries a discarded serialization.
func (j *coldJob) traced(ctx context.Context, tc traceCtx) (repResult, error) {
	var res repResult
	var mx *trigene.Matrix
	var sess *trigene.Session
	parseS, err := tc.call("dataset.parse", func(int) error {
		raw, err := os.ReadFile(j.path)
		if err != nil {
			return err
		}
		mx, err = datafile.ReadFrom(bytes.NewReader(raw), "auto", "")
		return err
	})
	if err != nil {
		return res, err
	}
	newS, err := tc.call("store.new", func(int) (err error) {
		sess, err = trigene.NewSession(mx)
		return err
	})
	if err != nil {
		return res, err
	}
	hashS, _ := tc.call("store.hash", func(int) error { sess.DatasetHash(); return nil })
	res.setupT.wall = parseS + newS + hashS

	encodeS, err := tc.call("store.encode", func(int) error { return sess.WritePack(io.Discard) })
	if err != nil {
		return res, err
	}
	res.searchT.wall = encodeS
	opts := j.w.searchOpts(workers())
	if sc := j.w.Screen; sc != nil {
		var scores *trigene.ScreenScores
		scanS, err := tc.call("engine.pairscan", func(int) (err error) {
			scores, err = sess.ScreenStage1(ctx, sc.SeedPairs, trigene.WithWorkers(workers()), trigene.WithMetrics(tc.reg))
			return err
		})
		if err != nil {
			return res, err
		}
		pinned := trigene.ScreenSpec{}
		selectS, err := tc.call("screen.select", func(int) (err error) {
			pinned.Survivors, _, err = scores.SelectSurvivors(sc.MaxSurvivors)
			pinned.Seeds = scores.SeedList(sc.SeedPairs)
			return err
		})
		if err != nil {
			return res, err
		}
		res.searchT.wall += scanS + selectS
		res.combos = scores.Pairs
		opts = []trigene.Option{trigene.WithTopK(j.w.TopK), trigene.WithWorkers(workers()), trigene.WithScreen(pinned)}
	}
	var stage2S float64
	if res.report, stage2S, err = tc.tracedSearch(ctx, "engine.stage2", sess, opts); err != nil {
		return res, err
	}
	res.searchT.wall += stage2S
	res.combos += res.report.Combinations
	return res, tc.tracedPerm(ctx, j.w, sess, &res)
}
