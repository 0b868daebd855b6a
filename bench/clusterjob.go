package main

import (
	"context"
	"fmt"

	"trigene"
)

// clusterJob: cluster-loopback, and the cluster layer of every other
// workload's traced run. One repetition is a search job (Submit + Wait)
// and a permutation job over its top-K (ExecutePerm).
type clusterJob struct {
	w        workloadDef
	path     string
	stateDir string
	rec      *recorder // non-nil: the loopback is tapped and instrumented

	sess   *trigene.Session
	mx     *trigene.Matrix
	lb     *loopback
	closed bool
}

func (j *clusterJob) searchSpec() trigene.SearchSpec {
	return trigene.SearchSpec{TopK: j.w.TopK, Workers: 1, Screen: j.w.Screen}
}

// open loads the dataset, starts the coordinator, times clusterSetupCalls
// submissions against it (cancelling each job at once; untraced runs only,
// a traced run times the submissions of its repetitions), and only then
// starts the workers.
func (j *clusterJob) open(ctx context.Context) ([]timing, error) {
	var err error
	if j.sess, _, err = openPackTimed(j.path); err != nil {
		return nil, err
	}
	j.mx = j.sess.Matrix()
	if j.lb, err = startLoopback(j.stateDir, j.rec); err != nil {
		return nil, err
	}
	j.lb.cl.Tiles = j.w.PermTiles // what ExecutePerm cuts its job into
	var setups []timing
	for i := 0; i < clusterSetupCalls && j.rec == nil; i++ {
		var id string
		t, err := timed(func() (err error) {
			id, err = j.lb.cl.Submit(ctx, j.mx, j.searchSpec(), j.w.Tiles, "setup")
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
		setups = append(setups, t)
		if err := j.lb.cl.Cancel(ctx, id); err != nil {
			return nil, fmt.Errorf("cancel %s: %w", id, err)
		}
	}
	j.lb.startWorkers(workers())
	return setups, nil
}

// Submissions once the workers run are those of the repetitions: a
// stand-alone one could be leased from before it is cancelled.
func (j *clusterJob) setups(ctx context.Context) ([]timing, error) { return nil, nil }

func (j *clusterJob) rep(ctx context.Context) (repResult, error) {
	return j.traced(ctx, traceCtx{})
}

// phase times one call of a repetition: as a span when the repetition is
// traced, between two readings of the host gauge when it is not.
func (tc traceCtx) phase(name string, fn func(span int) error) (timing, error) {
	if tc.rec != nil {
		wall, err := tc.call(name, fn)
		return timing{wall: wall}, err
	}
	t, err := timed(func() error { return fn(0) })
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return t, err
}

// traced is rep with spans: the recorder in tc may be nil, and then this
// is exactly the untraced repetition. Request spans from the tap hang
// under the call that caused them.
func (j *clusterJob) traced(ctx context.Context, tc traceCtx) (repResult, error) {
	var res repResult
	var id string
	var err error
	res.setupT, err = tc.phase("cluster.submit", func(span int) (err error) {
		j.lb.tap.under(span, tc.rep)
		id, err = j.lb.cl.Submit(ctx, j.mx, j.searchSpec(), j.w.Tiles, j.w.Name)
		return err
	})
	if err != nil {
		return res, err
	}
	res.searchT, err = tc.phase("cluster.wait", func(span int) (err error) {
		j.lb.tap.under(span, tc.rep)
		res.report, err = j.lb.cl.Wait(ctx, id)
		return err
	})
	if err != nil {
		return res, err
	}
	res.combos = evaluated(res.report)
	var permRep *trigene.Report
	res.permT, err = tc.phase("cluster.perm", func(span int) (err error) {
		j.lb.tap.under(span, tc.rep)
		permRep, err = j.lb.cl.ExecutePerm(ctx, j.mx, trigene.SearchSpec{
			Workers: 1,
			Perm:    &trigene.PermSpec{SNPs: candidatesOf(res.report), Permutations: j.w.Perms, Seed: permSeed},
		})
		return err
	})
	j.lb.tap.under(tc.root, tc.rep)
	if err != nil {
		return res, err
	}
	if permRep.Perm == nil {
		return res, fmt.Errorf("cluster.perm: report carries no Perm block")
	}
	for _, c := range permRep.Perm.Results {
		res.perm = append(res.perm, &trigene.PermResult{
			Observed: c.Observed, AsGoodOrBetter: c.AsGoodOrBetter,
			Permutations: permRep.Perm.Permutations, PValue: c.PValue,
		})
	}
	return res, nil
}

// local is the same search (and, with perm, permutation test) in one
// process with P workers: the reference the cluster's results must equal
// bit for bit, and the numerator of cluster.efficiency.
func (j *clusterJob) local(ctx context.Context, perm bool) (repResult, error) {
	if perm {
		return searchAndTest(ctx, j.w, j.sess)
	}
	return searchOnly(ctx, j.w, j.sess, workers())
}

func (j *clusterJob) ref(ctx context.Context) (timing, error) { return refSearch(ctx, j.w, j.sess) }

// close stops the cluster; the registries and the tap stay readable.
func (j *clusterJob) close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if j.lb != nil {
		err = j.lb.close()
	}
	if j.sess != nil {
		j.sess.Close()
	}
	return err
}
