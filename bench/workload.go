package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"trigene"
	"trigene/internal/datafile"
)

// kind selects how a workload's job is driven.
type kind int

const (
	warm      kind = iota // .tpack opened once, searched many times
	cold                  // text file parsed from scratch on every repetition
	clustered             // jobs submitted to an in-process cluster
)

// workloadDef is one workload: the input shape and the job run on it.
// Sample counts, tile counts and permutation counts are the ISSUE's; SNP
// counts were shrunk (and only they) so that several repetitions fit in
// one run of run_seconds — see README.md for the measured sizes.
type workloadDef struct {
	Name    string `json:"name"`
	Kind    kind   `json:"kind"`
	SNPs    int    `json:"snps"`
	Samples int    `json:"samples"`
	TopK    int    `json:"topK"`
	// Perms is the relabeling count of the permutation test that follows
	// every search over its top-K.
	Perms  int                 `json:"permutations"`
	Screen *trigene.ScreenSpec `json:"screen,omitempty"`
	// Tiles and PermTiles cut the cluster search and permutation jobs.
	Tiles     int `json:"tiles"`
	PermTiles int `json:"permTiles"`
}

var workloads = []workloadDef{
	// Long bit-planes (256 words): AND+POPCNT does nearly all the work.
	{Name: "triples-wide", Kind: warm, SNPs: 96, Samples: 16384, TopK: 10, Perms: 1000, Tiles: 512, PermTiles: 64},
	// Short ragged planes (8 words): per-combination fixed costs (scoring,
	// top-K, claiming, pair-plane rebuilds) take about twice the share.
	{Name: "triples-tall", Kind: warm, SNPs: 224, Samples: 500, TopK: 10, Perms: 10000, Tiles: 512, PermTiles: 64},
	// The researcher-with-a-file journey: parse, encode, hash, stage-1
	// pair scan and the permutation kernel carry the time.
	{Name: "pipeline-cold", Kind: cold, SNPs: 640, Samples: 16384, TopK: 8, Perms: 12000,
		Screen: &trigene.ScreenSpec{MaxSurvivors: 64, SeedPairs: 16}, Tiles: 128, PermTiles: 64},
	// ~1 ms of kernel per tile, so the control plane (HTTP+JSON, WAL
	// fsyncs, dataset upload/fetch, merges) is a large, visible share.
	{Name: "cluster-loopback", Kind: clustered, SNPs: 128, Samples: 8192, TopK: 8, Perms: 8000, Tiles: 512, PermTiles: 64},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// permSeed fixes the permutation test's RNG; results must repeat exactly.
const permSeed = 20220530

// genConfig derives the workload's dataset from the run seed and the
// workload name: same seed, same inputs. The planted triple is the answer
// every search must return.
func (w workloadDef) genConfig(seed int64) trigene.GenConfig {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", w.Name, seed)
	genSeed := int64(h.Sum64() >> 1)
	rng := rand.New(rand.NewSource(genSeed))
	planted := rng.Perm(w.SNPs)[:3]
	sort.Ints(planted)
	return trigene.GenConfig{
		SNPs: w.SNPs, Samples: w.Samples, Seed: genSeed,
		MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{planted[0], planted[1], planted[2]},
			Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
		},
	}
}

func (w workloadDef) inputPath(dir string) string {
	if w.Kind == cold {
		return filepath.Join(dir, "input.raw")
	}
	return filepath.Join(dir, "input.tpack")
}

// generateInputs writes the workload's input file: the only thing the
// program under test ever sees.
func generateInputs(w workloadDef, seed int64, dir string) error {
	mx, err := trigene.Generate(w.genConfig(seed))
	if err != nil {
		return fmt.Errorf("generating %s: %w", w.Name, err)
	}
	f, err := os.Create(w.inputPath(dir))
	if err != nil {
		return err
	}
	defer f.Close()
	if w.Kind == cold {
		err = writeRAW(f, mx)
	} else {
		var sess *trigene.Session
		if sess, err = trigene.NewSession(mx); err == nil {
			err = sess.WritePack(f)
		}
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", f.Name(), err)
	}
	return f.Close()
}

// writeRAW writes mx as a PLINK additive-recode .raw file (samples in
// rows, phenotype 1 = control / 2 = case).
func writeRAW(out io.Writer, mx *trigene.Matrix) error {
	bw := bufio.NewWriterSize(out, 1<<20)
	bw.WriteString("FID IID PAT MAT SEX PHENOTYPE")
	m, n := mx.SNPs(), mx.Samples()
	for i := 0; i < m; i++ {
		fmt.Fprintf(bw, " snp%d_A", i)
	}
	bw.WriteByte('\n')
	rows := make([][]uint8, m)
	for i := range rows {
		rows[i] = mx.Row(i)
	}
	line := make([]byte, 0, 2*m+1)
	for j := 0; j < n; j++ {
		fmt.Fprintf(bw, "F%d I%d 0 0 0 %d", j, j, mx.Phen(j)+1)
		line = line[:0]
		for i := 0; i < m; i++ {
			line = append(line, ' ', '0'+rows[i][j])
		}
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush() // reports the first write error, if any
}

func (w workloadDef) searchOpts(p int, extra ...trigene.Option) []trigene.Option {
	opts := []trigene.Option{trigene.WithTopK(w.TopK), trigene.WithWorkers(p)}
	if w.Screen != nil {
		opts = append(opts, trigene.WithScreen(*w.Screen))
	}
	return append(opts, extra...)
}

func (w workloadDef) permOpts(p int, extra ...trigene.Option) []trigene.Option {
	return append([]trigene.Option{
		trigene.WithPermutations(w.Perms), trigene.WithSeed(permSeed), trigene.WithWorkers(p),
	}, extra...)
}

// repResult is what one repetition of a workload's job produced.
type repResult struct {
	// setupT is zero when the repetition included no set-up call. Traced
	// repetitions are not gauged: their speeds stay 0.
	setupT, searchT, permT timing
	// combos is how many combinations the search evaluated, stage-1 pairs
	// included; times samples it is the paper's work unit (elements).
	combos int64
	report *trigene.Report
	perm   []*trigene.PermResult
}

func (r repResult) solveS() float64 { return r.searchT.wall + r.permT.wall }

func evaluated(rep *trigene.Report) int64 {
	if rep.Screen != nil {
		return rep.Combinations + rep.Screen.PairsScanned
	}
	return rep.Combinations
}

func candidatesOf(rep *trigene.Report) [][]int {
	out := make([][]int, len(rep.TopK))
	for i, c := range rep.TopK {
		out[i] = c.SNPs
	}
	return out
}

// job drives one workload. open prepares what a user has before the first
// repetition and returns the stand-alone set-up calls it timed; setups,
// called once a round, times more of them where that is cheap; rep is one
// closed-loop repetition through the public API; ref is the same search on
// one worker in one process, the plain baseline sched.scaling_eff is taken
// against.
type job interface {
	open(ctx context.Context) (setups []timing, err error)
	setups(ctx context.Context) ([]timing, error)
	rep(ctx context.Context) (repResult, error)
	// traced is rep driven layer by layer through the program's exported
	// functions, one span per call, under the span root.
	traced(ctx context.Context, tc traceCtx) (repResult, error)
	ref(ctx context.Context) (timing, error)
	close() error
}

// warmSetupCalls is how many set-up calls of under a millisecond make one
// timing; clusterSetupCalls is how many submissions of about 20 ms are
// timed before the workers start.
const (
	warmSetupCalls    = 20
	clusterSetupCalls = 21
)

func newJob(w workloadDef, dir string, rec *recorder) job {
	switch w.Kind {
	case cold:
		return &coldJob{w: w, path: w.inputPath(dir)}
	case clustered:
		return &clusterJob{w: w, path: w.inputPath(dir), stateDir: filepath.Join(dir, "coord"), rec: rec}
	}
	return &warmJob{w: w, path: w.inputPath(dir)}
}

// searchOnly is the workload's search through the public API on p workers,
// timed.
func searchOnly(ctx context.Context, w workloadDef, sess *trigene.Session, p int) (repResult, error) {
	var res repResult
	var err error
	res.searchT, err = timed(func() (err error) {
		res.report, err = sess.Search(ctx, w.searchOpts(p)...)
		return err
	})
	if err != nil {
		return res, fmt.Errorf("search on %d workers: %w", p, err)
	}
	res.combos = evaluated(res.report)
	return res, nil
}

// searchAndTest is one single-process repetition: search, then permutation
// test of its top-K, both on P workers.
func searchAndTest(ctx context.Context, w workloadDef, sess *trigene.Session) (repResult, error) {
	res, err := searchOnly(ctx, w, sess, workers())
	if err != nil {
		return res, err
	}
	res.permT, err = timed(func() (err error) {
		res.perm, err = sess.PermutationTestAll(ctx, candidatesOf(res.report), w.permOpts(workers())...)
		return err
	})
	if err != nil {
		return res, fmt.Errorf("permutation test: %w", err)
	}
	return res, nil
}

func refSearch(ctx context.Context, w workloadDef, sess *trigene.Session) (timing, error) {
	res, err := searchOnly(ctx, w, sess, 1)
	return res.searchT, err
}

// openPackTimed is the warm set-up: on-disk .tpack to a ready Session.
func openPackTimed(path string) (*trigene.Session, float64, error) {
	start := time.Now()
	sess, err := trigene.OpenPack(path)
	if err != nil {
		return nil, 0, err
	}
	sess.DatasetHash()
	return sess, time.Since(start).Seconds(), nil
}

// warmJob: triples-wide and triples-tall.
type warmJob struct {
	w    workloadDef
	path string
	sess *trigene.Session
}

func (j *warmJob) open(ctx context.Context) ([]timing, error) {
	var err error
	if j.sess, _, err = openPackTimed(j.path); err != nil {
		return nil, err
	}
	return j.setups(ctx)
}

// setups times warmSetupCalls set-up calls as one: they are too short to
// gauge one by one.
func (j *warmJob) setups(ctx context.Context) ([]timing, error) {
	var calls float64
	batch, err := timed(func() error {
		for i := 0; i < warmSetupCalls; i++ {
			sess, d, err := openPackTimed(j.path)
			if err != nil {
				return err
			}
			calls += d
			sess.Close()
		}
		return nil
	})
	batch.wall = calls / warmSetupCalls
	return []timing{batch}, err
}

func (j *warmJob) rep(ctx context.Context) (repResult, error) { return searchAndTest(ctx, j.w, j.sess) }
func (j *warmJob) ref(ctx context.Context) (timing, error)    { return refSearch(ctx, j.w, j.sess) }
func (j *warmJob) close() error                               { return j.sess.Close() }

// coldJob: pipeline-cold. Every repetition starts from the text file.
type coldJob struct {
	w    workloadDef
	path string
	last *trigene.Session // the latest repetition's session; ref re-encodes its matrix
}

// Every repetition sets up from scratch, so there are no stand-alone calls.
func (j *coldJob) open(ctx context.Context) ([]timing, error)   { return nil, nil }
func (j *coldJob) setups(ctx context.Context) ([]timing, error) { return nil, nil }

func (j *coldJob) rep(ctx context.Context) (repResult, error) {
	var sess *trigene.Session
	setup, err := timed(func() (err error) {
		if sess, err = datafile.ReadSession(j.path, "auto", ""); err == nil {
			sess.DatasetHash()
		}
		return err
	})
	if err != nil {
		return repResult{}, fmt.Errorf("reading %s: %w", j.path, err)
	}
	res, err := searchAndTest(ctx, j.w, sess)
	res.setupT = setup
	j.last = sess
	return res, err
}

// ref runs on a fresh Session over the parsed matrix, so that it pays the
// lazy encodings inside the search exactly as the repetitions do.
func (j *coldJob) ref(ctx context.Context) (timing, error) {
	sess, err := trigene.NewSession(j.last.Matrix())
	if err != nil {
		return timing{}, err
	}
	return refSearch(ctx, j.w, sess)
}

func (j *coldJob) close() error { return nil }
