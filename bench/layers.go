package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"trigene"
	"trigene/internal/bitvec"
	"trigene/internal/combin"
	"trigene/internal/contingency"
	"trigene/internal/datafile"
	"trigene/internal/dataset"
	"trigene/internal/engine"
	"trigene/internal/obs"
	"trigene/internal/plan"
	"trigene/internal/sched"
	"trigene/internal/score"
	"trigene/internal/store"
	"trigene/internal/topk"
	"trigene/internal/wal"
)

// metricValue is one reported number; metricSet collects them by name.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) put(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

// repeat calls fn until budget is spent, at least once, and returns the
// median seconds per call.
func repeat(budget time.Duration, fn func() error) (float64, error) {
	var secs []float64
	for deadline := time.Now().Add(budget); len(secs) == 0 || time.Now().Before(deadline); {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// scrape reads the registries through the same text exposition a /metrics
// endpoint serves. Every series is kept under its full name with labels,
// and summed into its family name (labels dropped).
func scrape(regs ...*obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range regs {
		var buf bytes.Buffer
		reg.WriteTo(&buf) // a bytes.Buffer cannot fail; nil registries write nothing
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			family, _, labelled := strings.Cut(line[:i], "{")
			out[family] += v
			if labelled {
				out[line[:i]] += v
			}
		}
	}
	return out
}

// layerEnv is what the isolated layer loops run on: the workload's own
// data, the directory for scratch files, and a time budget per loop.
type layerEnv struct {
	w      workloadDef
	mx     *trigene.Matrix
	dir    string
	budget time.Duration
	// report is a result of the workload's job: its top-K are the
	// candidates the permutation and merge loops work on.
	report *trigene.Report
	// memSet is the working set of the memory-bound AND3 loop, in bytes.
	memSet int
}

var sink float64 // keeps the compiler from deleting measured loops

// layerOut is what the layer loops hand on besides their metrics.
type layerOut struct {
	packPath  string              // the .tpack written; the cluster layer submits from it
	predicted float64             // the planner's predicted CPU rate, G elements/s
	perm      *trigene.PermResult // one-worker permutation result of the best candidate
}

// measureLayers runs every isolated layer loop on the workload's data, from
// outside the program.
func measureLayers(ctx context.Context, env layerEnv, m metricSet) (out layerOut, err error) {
	if err := measureDataset(env, m); err != nil {
		return out, fmt.Errorf("dataset layer: %w", err)
	}
	st, packPath, err := measureStore(env, m)
	out.packPath = packPath
	if err != nil {
		return out, fmt.Errorf("store layer: %w", err)
	}
	measureBitvec(env, m)
	scoreNs, insertNs := measureScoreTopK(env, st.Split(), m)
	if err := measureKernelAndHotLoop(env, st, (scoreNs+insertNs)/1e9, m); err != nil {
		return out, fmt.Errorf("engine layer: %w", err)
	}
	if err := measureMerge(env, m); err != nil {
		return out, fmt.Errorf("topk layer: %w", err)
	}
	if err := measureSched(ctx, env, m); err != nil {
		return out, fmt.Errorf("sched layer: %w", err)
	}
	if err := measureEngine(ctx, env, m); err != nil {
		return out, fmt.Errorf("engine layer: %w", err)
	}
	if out.perm, err = measurePermtest(ctx, env, m); err != nil {
		return out, fmt.Errorf("permtest layer: %w", err)
	}
	start := time.Now()
	p, err := plan.Decide(plan.Workload{SNPs: env.w.SNPs, Samples: env.w.Samples, Order: 3, Objective: "k2"},
		plan.LiveHost(), plan.Constraints{Backend: "cpu"})
	if err != nil {
		return out, fmt.Errorf("plan layer: %w", err)
	}
	m.put("plan.decide_ms", "ms", time.Since(start).Seconds()*1e3)
	out.predicted = p.PredictedCPUGElems
	return out, nil
}

// rawBytes is the workload's dataset as PLINK .raw text.
func rawBytes(env layerEnv) ([]byte, error) {
	if env.w.Kind == cold {
		return os.ReadFile(env.w.inputPath(env.dir))
	}
	var buf bytes.Buffer
	if err := writeRAW(&buf, env.mx); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func measureDataset(env layerEnv, m metricSet) error {
	raw, err := rawBytes(env)
	if err != nil {
		return err
	}
	secs, err := repeat(env.budget, func() error {
		_, err := datafile.ReadFrom(bytes.NewReader(raw), "auto", "")
		return err
	})
	if err != nil {
		return err
	}
	m.put("dataset.parse_s", "s", secs)
	m.put("dataset.parse_mb_per_s", "MB/s", float64(len(raw))/1e6/secs)
	return nil
}

func measureStore(env layerEnv, m metricSet) (*store.Store, string, error) {
	encodeS, err := repeat(env.budget, func() error {
		st, err := store.New(env.mx)
		if err != nil {
			return err
		}
		st.Split()
		st.Binarized()
		st.ClassPlanes()
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	m.put("store.encode_s", "s", encodeS)
	hashS, err := repeat(env.budget, func() error {
		st, err := store.New(env.mx)
		if err != nil {
			return err
		}
		st.Hash()
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	m.put("store.hash_s", "s", hashS)

	st, err := store.New(env.mx)
	if err != nil {
		return nil, "", err
	}
	st.Split()
	st.Binarized()
	path := filepath.Join(env.dir, "layer.tpack")
	writeS, err := repeat(env.budget, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := st.WritePack(f); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return nil, "", err
	}
	m.put("store.pack_write_s", "s", writeS)
	packed, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	m.put("store.pack_bytes", "bytes", float64(len(packed)))
	openS, err := repeat(env.budget, func() error {
		ps, err := store.Open(path)
		if err != nil {
			return err
		}
		return ps.Close()
	})
	if err != nil {
		return nil, "", err
	}
	m.put("store.pack_open_s", "s", openS)
	readS, err := repeat(env.budget, func() error {
		_, err := store.ReadPack(bytes.NewReader(packed))
		return err
	})
	if err != nil {
		return nil, "", err
	}
	m.put("store.pack_read_s", "s", readS)
	return st, path, nil
}

// memSetBytes is the working set of the memory-bound AND3 loop. The
// HPC sheet asks for four times the last-level cache; this host's LLC is
// larger than that allows, so the result carries the LLC size beside it
// and is cache-assisted whenever memSetBytes < 4 x LLC.
const memSetBytes = 256 << 20

func measureBitvec(env layerEnv, m metricSet) {
	and3 := func(words int, budget time.Duration) float64 {
		x, y, z := make([]uint64, words), make([]uint64, words), make([]uint64, words)
		for i := range x {
			x[i], y[i], z[i] = ^uint64(i), 0xAAAAAAAAAAAAAAAA^uint64(i), ^uint64(i*7) // touches every page
		}
		n, acc := 0, 0
		start := time.Now()
		for deadline := start.Add(budget); n == 0 || time.Now().Before(deadline); n++ {
			// Batches keep the clock read off the L1-resident loop.
			for b := 0; b < max(1, 4096/words); b++ {
				acc += bitvec.PopCountAnd3Lanes8(x, y, z)
			}
		}
		sink += float64(acc)
		return float64(n*max(1, 4096/words)) * float64(words) / time.Since(start).Seconds() / 1e9
	}
	m.put("bitvec.and3_gwords_per_s_l1", "Gword/s", and3(256, env.budget))
	m.put("bitvec.and3_gwords_per_s_mem", "Gword/s", and3(env.memSet/8/3, env.budget))
}

// kernelLoop is the V4F kernel with nothing around it: one goroutine
// builds the pair planes and streams the fused accumulate over the block
// triples of the workload's Split planes exactly as the engine's blocked
// loop does (two i0 per pass, Lanes8 for the odd one), with no pad
// correction, scoring or top-K. It works one block triple at a time, so
// that it can take turns with the hot loop it is compared to.
type kernelLoop struct {
	split  *dataset.Split
	bs, bw int
	nb     int
	tables []contingency.Table
	pair   []uint64

	combos, xWords, pairWords int64
	secs                      float64
}

func newKernelLoop(split *dataset.Split) *kernelLoop {
	bs, bw := engine.FusedTileParams(32 << 10) // the engine's default L1 budget
	bs = min(bs, split.M)
	return &kernelLoop{
		split: split, bs: bs, bw: bw, nb: combin.TripleBlocks(split.M, bs),
		tables: make([]contingency.Table, bs*bs*bs),
		pair:   make([]uint64, contingency.PairPlanes*bw),
	}
}

// blockTriple runs the kernel over block triple rank: the same work the
// hot loop's tile of that rank does before it scores.
func (k *kernelLoop) blockTriple(rank int64) {
	split, bs, bw, tables := k.split, k.bs, k.bw, k.tables
	lim := func(b int) int { return min(bs, split.M-b*bs) }
	a, b, c := combin.UnrankTriple(rank, k.nb+2)
	b0, b1, b2 := a, b-1, c-2
	base0, base1, base2 := b0*bs, b1*bs, b2*bs
	lim0, lim1, lim2 := lim(b0), lim(b1), lim(b2)
	for class := 0; class < 2; class++ {
		words := split.Words[class]
		for w0 := 0; w0 < words; w0 += bw {
			w1 := min(w0+bw, words)
			for ii2 := 0; ii2 < lim2; ii2++ {
				gi2 := base2 + ii2
				for ii1 := 0; ii1 < lim1 && base1+ii1 < gi2; ii1++ {
					gi1 := base1 + ii1
					n0 := min(lim0, gi1-base0)
					if n0 <= 0 {
						continue
					}
					pp := k.pair[:contingency.PairPlanes*(w1-w0)]
					contingency.BuildPairPlanes(pp,
						split.PlaneRange(class, gi1, 0, w0, w1), split.PlaneRange(class, gi1, 1, w0, w1),
						split.PlaneRange(class, gi2, 0, w0, w1), split.PlaneRange(class, gi2, 1, w0, w1))
					row := ii1*bs + ii2
					ii0 := 0
					for ; ii0+2 <= n0; ii0 += 2 {
						gi0 := base0 + ii0
						contingency.AccumulateFusedX2(
							&tables[ii0*bs*bs+row].Counts[class], &tables[(ii0+1)*bs*bs+row].Counts[class],
							split.PlaneRange(class, gi0, 0, w0, w1), split.PlaneRange(class, gi0, 1, w0, w1),
							split.PlaneRange(class, gi0+1, 0, w0, w1), split.PlaneRange(class, gi0+1, 1, w0, w1), pp)
					}
					if ii0 < n0 {
						gi0 := base0 + ii0
						contingency.AccumulateFusedLanes8(&tables[ii0*bs*bs+row].Counts[class],
							split.PlaneRange(class, gi0, 0, w0, w1), split.PlaneRange(class, gi0, 1, w0, w1), pp)
					}
					k.pairWords += int64(w1 - w0)
					k.xWords += int64(n0 * (w1 - w0))
					if class == 0 && w0 == 0 {
						k.combos += int64(n0)
					}
				}
			}
		}
	}
}

// measureKernelAndHotLoop runs the bare kernel and the engine's
// single-consumer hot loop (claim -> kernel -> score -> top-K, no pool)
// block triple by block triple in turns, so that a slow phase of the host
// hits both alike, and estimates from them and the isolated scoring loops
// where the hot loop's per-combination time goes.
func measureKernelAndHotLoop(env layerEnv, st *store.Store, scoreSec float64, m metricSet) error {
	searcher, err := engine.NewFromStore(st)
	if err != nil {
		return err
	}
	h, err := searcher.NewHotLoop(engine.Options{TopK: env.w.TopK})
	if err != nil {
		return err
	}
	defer h.Close()
	k := newKernelLoop(st.Split())
	// Both loops do one block triple at a time, the same one, turn and turn
	// about; who goes first (and finds the planes cold) alternates.
	var kernelSecs, hotSecs float64
	begin := time.Now()
	for rank := int64(0); time.Since(begin) < 4*env.budget; rank = (rank + 1) % h.Tiles() {
		t0 := time.Now()
		if rank%2 == 0 {
			k.blockTriple(rank)
			t1 := time.Now()
			h.Process(h.Tile(rank))
			kernelSecs, hotSecs = kernelSecs+t1.Sub(t0).Seconds(), hotSecs+time.Since(t1).Seconds()
		} else {
			h.Process(h.Tile(rank))
			t1 := time.Now()
			k.blockTriple(rank)
			hotSecs, kernelSecs = hotSecs+t1.Sub(t0).Seconds(), kernelSecs+time.Since(t1).Seconds()
		}
	}
	k.secs = kernelSecs
	sink += float64(k.tables[0].Counts[0][0])

	samples := float64(env.w.Samples)
	elems := float64(k.combos) * samples
	m.put("contingency.fused_gelems_per_s", "Gelem/s", elems/k.secs/1e9)
	// Computed, not measured: per x-plane word the fused kernel does 1 NOR,
	// 27 AND, 27 POPCNT and 27 adds; per pair-plane word 2 NOR and 9 AND.
	// It reads two stored x words (16 B) and nine cached pair words (72 B,
	// shared by the two candidates of an X2 pass, so 36 B each) per x word,
	// and per pair word reads four stored words and writes nine. Cache
	// misses are not in these bytes.
	m.put("contingency.ops_per_elem", "ops/elem", (82*float64(k.xWords)+11*float64(k.pairWords))/elems)
	m.put("contingency.bytes_per_elem", "B/elem", ((16+36)*float64(k.xWords)+(4+9)*8*float64(k.pairWords))/elems)
	// Each x word is 27 AND+POPCNT cells; the AND3 reference counts one
	// per word. The fused kernel popcounts 27 words per 11 it loads, the
	// AND3 loop 1 per 3, so this ratio can exceed 1.
	m.put("contingency.roof_frac", "ratio", 27*float64(k.xWords)/k.secs/1e9/m["bitvec.and3_gwords_per_s_l1"].Value)

	kernelSec, hotSec := k.secs/float64(k.combos), hotSecs/float64(h.Scored())
	m.put("engine.hotloop_gelems_per_s", "Gelem/s", samples/hotSec/1e9)
	// "other" is claiming, pad correction, table zeroing and block
	// bookkeeping: what is left of the hot loop's time per combination.
	m.put("engine.est_share_kernel", "fraction", kernelSec/hotSec)
	m.put("engine.est_share_score", "fraction", scoreSec/hotSec)
	m.put("engine.est_share_other", "fraction", 1-(kernelSec+scoreSec)/hotSec)
	return nil
}

// candidateBetter is the Report's candidate order: objective first, then
// lexicographic SNPs.
func candidateBetter(obj score.Objective) func(a, b trigene.SearchCandidate) bool {
	return func(a, b trigene.SearchCandidate) bool {
		if a.Score != b.Score {
			return obj.Better(a.Score, b.Score)
		}
		for i := range a.SNPs {
			if a.SNPs[i] != b.SNPs[i] {
				return a.SNPs[i] < b.SNPs[i]
			}
		}
		return false
	}
}

// measureScoreTopK times K2 scoring and the bounded top-K insert over one
// million tables and scores built from the workload's data. It returns
// nanoseconds per table and per insert.
func measureScoreTopK(env layerEnv, split *dataset.Split, m metricSet) (scoreNs, insertNs float64) {
	// distinct tables stay L1-resident, as the one table the engine scores is.
	const distinct, stream = 64, 1 << 20
	n := int(min(int64(distinct), combin.Triples(split.M)))
	tables := make([]contingency.Table, n)
	cands := make([]trigene.SearchCandidate, n)
	for r := range tables {
		i, j, k := combin.UnrankTriple(int64(r), split.M)
		tables[r] = contingency.BuildSplit(split, i, j, k)
		cands[r].SNPs = []int{i, j, k}
	}
	obj := score.NewK2(env.w.Samples)
	start := time.Now()
	for s := 0; s < stream; s++ {
		cands[s%n].Score = obj.Score(&tables[s%n])
	}
	scoreNs = float64(time.Since(start).Nanoseconds()) / stream
	m.put("score.k2_ns", "ns", scoreNs)

	better := candidateBetter(obj)
	var list []trigene.SearchCandidate
	start = time.Now()
	for s := 0; s < stream; s++ {
		list = topk.Insert(list, cands[s%n], env.w.TopK, better)
	}
	insertNs = float64(time.Since(start).Nanoseconds()) / stream
	sink += list[0].Score
	m.put("topk.insert_ns", "ns", insertNs)
	return scoreNs, insertNs
}

// measureMerge times MergeReports over P shard-sized Reports: copies of
// the job's Report as they arrive off the wire (JSON round trip).
func measureMerge(env layerEnv, m metricSet) error {
	raw, err := json.Marshal(env.report)
	if err != nil {
		return err
	}
	shards := make([]*trigene.Report, workers())
	for i := range shards {
		shards[i] = new(trigene.Report)
		if err := json.Unmarshal(raw, shards[i]); err != nil {
			return err
		}
	}
	const merges = 1000
	start := time.Now()
	for i := 0; i < merges; i++ {
		if _, err := trigene.MergeReports(shards...); err != nil {
			return err
		}
	}
	m.put("topk.merge_s", "s", time.Since(start).Seconds()/merges)
	return nil
}

func measureSched(ctx context.Context, env layerEnv, m metricSet) error {
	// The space the default (blocked) engine claims from: one rank per
	// block triple, grain 1.
	bs, _ := engine.FusedTileParams(32 << 10)
	nb := combin.TripleBlocks(env.w.SNPs, min(bs, env.w.SNPs))
	src := sched.NewSource(0, combin.Triples(nb+2), 1)
	p := workers()
	claims := 0
	start := time.Now()
	for deadline := start.Add(env.budget); claims == 0 || time.Now().Before(deadline); claims += int(src.Ranks()) {
		err := sched.NewCursor(src).Drain(ctx, p, func(int, sched.Tile) (int64, error) { return 1, nil })
		if err != nil {
			return err
		}
	}
	m.put("sched.claim_ns", "ns", float64(time.Since(start).Nanoseconds())*float64(p)/float64(claims))

	const tiles = 512
	leaseS, err := repeat(env.budget, func() error {
		lt := sched.NewLeaseTable(tiles)
		now := time.Now()
		for {
			l, ok := lt.Acquire(now, time.Minute)
			if !ok {
				break
			}
			if lt.Complete(l.Tile, l.Seq) != sched.CompleteAccepted {
				return fmt.Errorf("lease table refused tile %d", l.Tile)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("sched.lease_ns", "ns", leaseS*1e9/tiles)
	return nil
}

// measureEngine times the two screen stages and puts one warm search
// under the allocation counter.
func measureEngine(ctx context.Context, env layerEnv, m metricSet) error {
	sess, err := trigene.NewSession(env.mx)
	if err != nil {
		return err
	}
	p := workers()
	if _, err := sess.Search(ctx, env.w.searchOpts(p)...); err != nil { // builds the lazy encodings
		return err
	}
	sc := trigene.ScreenSpec{MaxSurvivors: 64, SeedPairs: 16}
	if env.w.Screen != nil {
		sc = *env.w.Screen
	}
	start := time.Now()
	scores, err := sess.ScreenStage1(ctx, sc.SeedPairs, trigene.WithWorkers(p))
	if err != nil {
		return err
	}
	scanS := time.Since(start).Seconds()
	m.put("engine.pairscan_s", "s", scanS)
	m.put("engine.pairscan_gelems_per_s", "Gelem/s", float64(scores.Pairs)*float64(env.w.Samples)/scanS/1e9)
	survivors, _, err := scores.SelectSurvivors(sc.MaxSurvivors)
	if err != nil {
		return err
	}
	pinned := trigene.ScreenSpec{Survivors: survivors, Seeds: scores.SeedList(sc.SeedPairs)}
	start = time.Now()
	if _, err := sess.Search(ctx, trigene.WithTopK(env.w.TopK), trigene.WithWorkers(p), trigene.WithScreen(pinned)); err != nil {
		return err
	}
	m.put("engine.stage2_s", "s", time.Since(start).Seconds())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sess.Search(ctx, env.w.searchOpts(p)...); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m.put("engine.alloc_mb_per_search", "MiB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	return nil
}

// layerPerms caps the one-worker permutation loop: the rate is per
// candidate-permutation, so a shorter run measures the same thing.
const layerPerms = 2000

// measurePermtest times the one-worker permutation kernel and returns the
// best candidate's result, which the scalar oracle re-derives.
func measurePermtest(ctx context.Context, env layerEnv, m metricSet) (*trigene.PermResult, error) {
	sess, err := trigene.NewSession(env.mx)
	if err != nil {
		return nil, err
	}
	cands := candidatesOf(env.report)
	perms := min(env.w.Perms, layerPerms)
	opts := []trigene.Option{trigene.WithPermutations(perms), trigene.WithSeed(permSeed), trigene.WithWorkers(1)}
	if _, err := sess.PermutationTestAll(ctx, cands[:1], opts...); err != nil { // builds the lazy encodings
		return nil, err
	}
	start := time.Now()
	res, err := sess.PermutationTestAll(ctx, cands, opts...)
	if err != nil {
		return nil, err
	}
	secs := time.Since(start).Seconds()
	m.put("permtest.kall_s", "s", secs)
	m.put("permtest.perm_per_s_1w", "1/s", float64(len(cands)*perms)/secs)
	return res[0], nil
}

// measureWAL times Append+Sync of records of the size the coordinator
// journals (recBytes), on a fresh log in dir.
func measureWAL(env layerEnv, recBytes int, m metricSet) error {
	dir := filepath.Join(env.dir, "wal-layer")
	log, err := wal.Open(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	rec := bytes.Repeat([]byte{'j'}, max(recBytes, 1))
	n := 0
	start := time.Now()
	for deadline := start.Add(env.budget); n < 1000 && (n == 0 || time.Now().Before(deadline)); n++ {
		if err := log.Append(rec); err != nil {
			return err
		}
		if err := log.Sync(); err != nil {
			return err
		}
	}
	m.put("wal.append_sync_us", "us", time.Since(start).Seconds()*1e6/float64(n))
	return log.Close()
}
