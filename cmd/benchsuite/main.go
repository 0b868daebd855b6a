// benchsuite regenerates every table and figure of the paper's
// evaluation section:
//
//	benchsuite -exp fig2a    # CARM characterization, Ice Lake SP CPU
//	benchsuite -exp fig2b    # CARM characterization, Iris Xe MAX GPU (simulated)
//	benchsuite -exp fig3     # CPU study across Table I devices (modeled)
//	benchsuite -exp fig4     # GPU study across Table II devices (modeled)
//	benchsuite -exp table3   # state-of-the-art comparison (modeled + host-measured)
//	benchsuite -exp overall  # Section V-D whole-device and efficiency comparison
//	benchsuite -exp host     # measured V1-V4 + baseline run on this machine
//	benchsuite -exp snapshot # machine-readable perf snapshot (BENCH_PR1.json)
//	benchsuite -exp sched    # tile-scheduler hot-loop audit (BENCH_PR2.json);
//	                         # exits nonzero if the claim→score loop allocates
//	benchsuite -exp cluster  # loopback tile-leasing cluster scaling audit
//	                         # (BENCH_PR3.json): tiles/sec at 1/2/4 workers
//	benchsuite -exp plan     # autotuning prediction-sanity audit
//	                         # (BENCH_PR4.json): planner-predicted vs measured
//	                         # tiles/sec per backend, plus the chosen grain and
//	                         # split; exits nonzero if a plan is malformed or an
//	                         # autotuned run diverges from the untuned Report
//	benchsuite -exp store    # encoded-dataset store audit (BENCH_PR5.json):
//	                         # cold parse+encode time vs .tpack load time per
//	                         # representation, plus bytes on the wire raw vs
//	                         # packed; exits nonzero if a packed load is not
//	                         # faster than re-encoding or changes any result
//	benchsuite -exp durable  # durable-coordinator audit (BENCH_PR6.json):
//	                         # journal append latency (buffered and fsynced),
//	                         # snapshot size and recovery time vs job count,
//	                         # and the lease-grant throughput of a journaling
//	                         # coordinator vs an in-memory one; exits nonzero
//	                         # if journaling costs more than 10% of the
//	                         # grant rate
//	benchsuite -exp kernels  # fused-kernel audit (BENCH_PR7.json): host-measured
//	                         # G elements/s of the blocked pipelines V3/V3F and
//	                         # V4/V4F at several tile shapes, plus the fused-vs-
//	                         # unfused speedup; exits nonzero if the fused V4F
//	                         # does not beat the unfused V4
//	benchsuite -exp obs      # observability-overhead audit (BENCH_PR8.json):
//	                         # V4F hot-loop tiles/sec with a live metrics
//	                         # registry vs without, time-paired median of
//	                         # ratios, plus the allocations per tile with the
//	                         # registry attached; exits nonzero if metrics
//	                         # cost more than 2% or allocate on the hot path
//	benchsuite -exp screen   # two-stage screened-search audit (BENCH_PR9.json):
//	                         # exhaustive vs screened wall time (time-paired
//	                         # median of ratios), the stage-1/stage-2 split,
//	                         # and the survivor recall of a planted triple;
//	                         # exits nonzero if screening is not at least 3x
//	                         # faster, prunes a planted SNP, misses the
//	                         # planted best, or allocates in the subset
//	                         # hot loop
//	benchsuite -exp perm     # permutation-kernel audit (BENCH_PR10.json):
//	                         # scalar vs bit-plane significance testing
//	                         # (time-paired median of ratios) and a
//	                         # loopback-cluster fan-out check;
//	                         # exits nonzero if the bit-plane kernel is not
//	                         # at least 5x faster, if any p-value diverges
//	                         # from the scalar reference (single-node or
//	                         # cluster-merged), or if the steady-state
//	                         # kernel allocates per permutation
//	benchsuite -exp all      # everything except the audit/snapshot experiments
//
// Cross-device rows are analytical-model projections (this is a
// pure-Go, single-host reproduction — see DESIGN.md); host rows are
// real measurements of this repository's implementations.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"trigene"
	"trigene/internal/carm"
	"trigene/internal/cluster"
	"trigene/internal/dataset"
	"trigene/internal/device"
	"trigene/internal/energy"
	"trigene/internal/engine"
	"trigene/internal/gpusim"
	"trigene/internal/obs"
	"trigene/internal/perfmodel"
	"trigene/internal/permtest"
	"trigene/internal/report"
	"trigene/internal/sched"
	"trigene/internal/store"
	"trigene/internal/wal"
)

var (
	snpSizes   = []int{2048, 4096, 8192}
	figSamples = 16384
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// out receives all experiment output; run sets it before dispatching.
var out io.Writer = os.Stdout

// run is the testable tool body.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: fig2a, fig2b, fig3, fig4, table3, overall, energy, host, snapshot, sched, cluster, plan, store, durable, kernels, obs, screen, perm or all")
	hostSNPs := fs.Int("host-snps", 160, "SNP count for the host-measured experiments")
	hostSamples := fs.Int("host-samples", 4096, "sample count for the host-measured experiments")
	snapOut := fs.String("out", "", "output path of the -exp snapshot/sched JSON (defaults: BENCH_PR1.json / BENCH_PR2.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out = stdout

	experiments := map[string]func() error{
		"fig2a":   fig2a,
		"fig2b":   fig2b,
		"fig3":    fig3,
		"fig4":    fig4,
		"table3":  func() error { return table3(*hostSNPs, *hostSamples) },
		"overall": overall,
		"energy":  energyExp,
		"host":    func() error { return host(*hostSNPs, *hostSamples) },
		"snapshot": func() error {
			return snapshot(orDefault(*snapOut, "BENCH_PR1.json"))
		},
		"sched": func() error {
			return schedExp(orDefault(*snapOut, "BENCH_PR2.json"))
		},
		"cluster": func() error {
			return clusterExp(orDefault(*snapOut, "BENCH_PR3.json"))
		},
		"plan": func() error {
			return planExp(orDefault(*snapOut, "BENCH_PR4.json"))
		},
		"store": func() error {
			return storeExp(orDefault(*snapOut, "BENCH_PR5.json"))
		},
		"durable": func() error {
			return durableExp(orDefault(*snapOut, "BENCH_PR6.json"))
		},
		"kernels": func() error {
			return kernelsExp(orDefault(*snapOut, "BENCH_PR7.json"))
		},
		"obs": func() error {
			return obsExp(orDefault(*snapOut, "BENCH_PR8.json"))
		},
		"screen": func() error {
			return screenExp(orDefault(*snapOut, "BENCH_PR9.json"))
		},
		"perm": func() error {
			return permExp(orDefault(*snapOut, "BENCH_PR10.json"))
		},
	}
	order := []string{"fig2a", "fig2b", "fig3", "fig4", "table3", "overall", "energy", "host"}
	if *exp == "all" {
		for _, name := range order {
			if err := experiments[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	f, ok := experiments[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if err := f(); err != nil {
		return fmt.Errorf("%s: %w", *exp, err)
	}
	return nil
}

func render(t *report.Table) error {
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return nil
}

func fig2a() error {
	ci3, err := device.CPUByID("CI3")
	if err != nil {
		return err
	}
	model := carm.CPUModel(ci3, true)
	fmt.Fprintln(out, "== Figure 2a: CARM characterization on Intel Xeon 8360Y (ICX), modeled ==")
	rt := report.NewTable("roofs", "name", "unit", "value")
	for _, r := range model.Roofs {
		unit := "GINTOPS"
		if r.Kind == carm.Memory {
			unit = "GB/s"
		}
		rt.AddRowf(r.Name, unit, r.Value)
	}
	if err := render(rt); err != nil {
		return err
	}
	points, err := carm.CPUPoints(ci3, true, 2048, figSamples)
	if err != nil {
		return err
	}
	pt := report.NewTable("approaches V1-V4 (2048 SNPs x 16384 samples)",
		"point", "AI intop/B", "GINTOPS", "ceiling GINTOPS")
	for _, p := range points {
		pt.AddRowf(p.Name, p.AI, p.GIntops, model.Attainable(p.AI))
	}
	return render(pt)
}

func fig2b() error {
	gi2, err := device.GPUByID("GI2")
	if err != nil {
		return err
	}
	model := carm.GPUModel(gi2)
	fmt.Fprintln(out, "== Figure 2b: CARM characterization on Intel Iris Xe MAX, simulated ==")
	rt := report.NewTable("roofs", "name", "unit", "value")
	for _, r := range model.Roofs {
		unit := "GINTOPS"
		if r.Kind == carm.Memory {
			unit = "GB/s"
		}
		rt.AddRowf(r.Name, unit, r.Value)
	}
	if err := render(rt); err != nil {
		return err
	}
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 64, Samples: 2048, Seed: 4})
	if err != nil {
		return err
	}
	st, err := store.New(mx)
	if err != nil {
		return err
	}
	runner := gpusim.New(gi2)
	pt := report.NewTable("kernels V1-V4 (simulated on 64 SNPs x 2048 samples)",
		"point", "AI intop/B", "GINTOPS", "G elem/s", "transactions")
	for k := gpusim.K1Naive; k <= gpusim.K4Tiled; k++ {
		res, err := runner.Search(st, gpusim.Options{Kernel: k})
		if err != nil {
			return err
		}
		p := carm.PointFromGPUStats(k.String(), res.Stats)
		pt.AddRowf(p.Name, p.AI, p.GIntops, res.Stats.ElementsPerSec/1e9, res.Stats.Transactions)
	}
	return render(pt)
}

func fig3() error {
	fmt.Fprintln(out, "== Figure 3: CPU performance across Table I devices (modeled), 16384 samples ==")
	type variant struct {
		cpu    device.CPU
		avx512 bool
		label  string
	}
	var variants []variant
	for _, c := range device.AllCPUs() {
		if c.HasAVX512 {
			variants = append(variants, variant{c, true, c.ID + " AVX512"})
		}
		variants = append(variants, variant{c, false, c.ID + " AVX"})
	}
	specs := []struct {
		title string
		f     func(device.CPU, bool, int, int) float64
	}{
		{"(a) Giga elements/s/core", perfmodel.CPUPerCoreGElemPerSec},
		{"(b) elements/cycle/core", perfmodel.CPUPerCyclePerCore},
		{"(c) elements/cycle/(core x vec width)", perfmodel.CPUPerCyclePerCoreVec},
	}
	for _, spec := range specs {
		t := report.NewTable(spec.title, "device", "2048 SNPs", "4096 SNPs", "8192 SNPs")
		for _, v := range variants {
			row := []interface{}{v.label}
			for _, m := range snpSizes {
				row = append(row, spec.f(v.cpu, v.avx512, m, figSamples))
			}
			t.AddRowf(row...)
		}
		if err := render(t); err != nil {
			return err
		}
	}
	return nil
}

func fig4() error {
	fmt.Fprintln(out, "== Figure 4: GPU performance across Table II devices (modeled), 16384 samples ==")
	specs := []struct {
		title string
		f     func(device.GPU, int, int) float64
	}{
		{"(a) Giga elements/s/CU", perfmodel.GPUPerCUGElemPerSec},
		{"(b) elements/cycle/CU", perfmodel.GPUPerCyclePerCU},
		{"(c) elements/cycle/stream core", perfmodel.GPUPerCyclePerStreamCore},
	}
	for _, spec := range specs {
		t := report.NewTable(spec.title, "device", "2048 SNPs", "4096 SNPs", "8192 SNPs")
		for _, g := range device.AllGPUs() {
			row := []interface{}{g.ID + " " + g.Arch}
			for _, m := range snpSizes {
				row = append(row, spec.f(g, m, figSamples))
			}
			t.AddRowf(row...)
		}
		if err := render(t); err != nil {
			return err
		}
	}
	return nil
}

func table3(hostSNPs, hostSamples int) error {
	fmt.Fprintln(out, "== Table III: comparison with state-of-the-art (modeled projection) ==")
	rows, err := perfmodel.Table3()
	if err != nil {
		return err
	}
	t := report.NewTable("SoA throughput as measured by the paper; ours modeled",
		"SoA work", "SNPs", "samples", "device", "SoA G elem/s", "ours G elem/s", "speedup", "paper")
	for _, r := range rows {
		soa := "N/A"
		if r.SoAGElems > 0 {
			soa = report.FormatFloat(r.SoAGElems)
		}
		paper := "N/A"
		if r.PaperSpeedup > 0 {
			paper = report.Speedup(r.PaperSpeedup)
		}
		t.AddRowf(r.Work, r.SNPs, r.Samples, r.DeviceID, soa, r.OursGElems, report.Speedup(r.Speedup), paper)
	}
	if err := render(t); err != nil {
		return err
	}

	fmt.Fprintln(out, "host-measured cross-check: MPI3SNP-style baseline vs this work's V4")
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: hostSNPs, Samples: hostSamples, Seed: 5})
	if err != nil {
		return err
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		return err
	}
	ctx := context.Background()
	base, err := sess.Search(ctx, trigene.WithBackend(trigene.Baseline()))
	if err != nil {
		return err
	}
	ours, err := sess.Search(ctx)
	if err != nil {
		return err
	}
	ht := report.NewTable("", "implementation", "G elem/s", "duration", "speedup")
	ht.AddRowf("MPI3SNP-style baseline", base.ElementsPerSec/1e9,
		base.Duration.Round(time.Millisecond).String(), report.Speedup(1))
	ht.AddRowf("this work V4", ours.ElementsPerSec/1e9,
		ours.Duration.Round(time.Millisecond).String(),
		report.Speedup(ours.ElementsPerSec/base.ElementsPerSec))
	return render(ht)
}

func overall() error {
	fmt.Fprintln(out, "== Section V-D: whole-device comparison at 8192 SNPs x 16384 samples (modeled) ==")
	t := report.NewTable("", "device", "name", "G elem/s", "TDP W", "G elem/J")
	for _, r := range perfmodel.Overall(8192, figSamples) {
		t.AddRowf(r.DeviceID, r.Name, r.GElems, r.TDP, r.GElemsPerJoule)
	}
	if err := render(t); err != nil {
		return err
	}
	ci3, err := device.CPUByID("CI3")
	if err != nil {
		return err
	}
	gn1, err := device.GPUByID("GN1")
	if err != nil {
		return err
	}
	hetero := perfmodel.CPUOverallGElemPerSec(ci3, true, 8192, figSamples) +
		perfmodel.GPUOverallGElemPerSec(gn1, 8192, figSamples)
	fmt.Fprintf(out, "heterogeneous CI3+GN1 estimate: %.0f G elements/s (paper: ~3300)\n\n", hetero)
	return nil
}

func host(snps, samples int) error {
	fmt.Fprintf(out, "== Host-measured approach study (%d SNPs x %d samples) ==\n", snps, samples)
	fmt.Fprintf(out, "fused kernel on this host: %s (V3F always runs the portable bodies, V4F this one)\n", trigene.Kernel())
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snps, Samples: samples, Seed: 6})
	if err != nil {
		return err
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		return err
	}
	ctx := context.Background()
	t := report.NewTable("", "approach", "duration", "G elem/s", "speedup vs V1")
	var v1 float64
	for a := trigene.V1Naive; a <= trigene.V4Fused; a++ {
		rep, err := sess.Search(ctx, trigene.WithApproach(a))
		if err != nil {
			return err
		}
		if a == trigene.V1Naive {
			v1 = rep.ElementsPerSec
		}
		t.AddRowf(rep.Approach, rep.Duration.Round(time.Millisecond).String(),
			rep.ElementsPerSec/1e9, report.Speedup(rep.ElementsPerSec/v1))
	}
	return render(t)
}

// Snapshot parameters are fixed so successive BENCH_PR*.json files are
// comparable across PRs: same synthetic dataset, every approach.
const (
	snapSNPs    = 64
	snapSamples = 2048
	snapSeed    = 17
)

// benchPoint is one measured configuration in the snapshot.
type benchPoint struct {
	Backend      string  `json:"backend"`
	Approach     string  `json:"approach"`
	Combinations int64   `json:"combinations"`
	DurationMs   float64 `json:"durationMs"`
	CombosPerSec float64 `json:"combosPerSec"`
	GElemsPerSec float64 `json:"gigaElementsPerSec"`
}

// benchSnapshot is the machine-readable perf trajectory record.
type benchSnapshot struct {
	Schema     string       `json:"schema"`
	SNPs       int          `json:"snps"`
	Samples    int          `json:"samples"`
	Seed       int64        `json:"seed"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Points     []benchPoint `json:"points"`
}

// snapshot measures combos/sec for every CPU approach plus the
// baseline on the fixed dataset and writes the JSON record.
func snapshot(outPath string) error {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snapSNPs, Samples: snapSamples, Seed: snapSeed})
	if err != nil {
		return err
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		return err
	}
	ctx := context.Background()
	snap := benchSnapshot{
		Schema:     "trigene-bench/1",
		SNPs:       snapSNPs,
		Samples:    snapSamples,
		Seed:       snapSeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	add := func(rep *trigene.Report) {
		p := benchPoint{
			Backend:      rep.Backend,
			Approach:     rep.Approach,
			Combinations: rep.Combinations,
			DurationMs:   float64(rep.Duration) / float64(time.Millisecond),
			GElemsPerSec: rep.ElementsPerSec / 1e9,
		}
		if secs := rep.Duration.Seconds(); secs > 0 {
			p.CombosPerSec = float64(rep.Combinations) / secs
		}
		snap.Points = append(snap.Points, p)
	}
	for a := trigene.V1Naive; a <= trigene.V4Vector; a++ {
		rep, err := sess.Search(ctx, trigene.WithApproach(a))
		if err != nil {
			return err
		}
		add(rep)
	}
	base, err := sess.Search(ctx, trigene.WithBackend(trigene.Baseline()))
	if err != nil {
		return err
	}
	add(base)

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "== Perf snapshot (%d SNPs x %d samples) -> %s ==\n", snapSNPs, snapSamples, outPath)
	t := report.NewTable("", "backend", "approach", "combos/s", "G elem/s")
	for _, p := range snap.Points {
		t.AddRowf(p.Backend, p.Approach, p.CombosPerSec, p.GElemsPerSec)
	}
	return render(t)
}

// orDefault returns s, or def when s is empty.
func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// schedHotLoop is one measured hot-loop configuration of the sched
// audit.
type schedHotLoop struct {
	Approach     string  `json:"approach"`
	Tiles        int64   `json:"tiles"`
	Combinations int64   `json:"combinations"`
	DurationMs   float64 `json:"durationMs"`
	TilesPerSec  float64 `json:"tilesPerSec"`
	CombosPerSec float64 `json:"combosPerSec"`
	AllocsPerOp  float64 `json:"allocsPerOp"`
}

// schedSnapshot is the machine-readable tile-scheduler audit record.
type schedSnapshot struct {
	Schema     string         `json:"schema"`
	SNPs       int            `json:"snps"`
	Samples    int            `json:"samples"`
	Seed       int64          `json:"seed"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Kernel     string         `json:"kernel"` // fused-kernel implementation behind the V4F row
	HotLoops   []schedHotLoop `json:"hotLoops"`
}

// schedExp audits the tile scheduler's claim→score hot loop on the
// fixed snapshot dataset: single-consumer tiles/sec for the V2 (flat),
// V4 (blocked) and V4F (fused, the default: assembly where the host
// has it) pipelines, and the steady-state allocations per processed
// tile via testing.AllocsPerRun. Any nonzero allocation
// count is a regression of the zero-allocation guarantee and fails
// the run (and CI with it).
func schedExp(outPath string) error {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snapSNPs, Samples: snapSamples, Seed: snapSeed})
	if err != nil {
		return err
	}
	searcher, err := engine.New(mx)
	if err != nil {
		return err
	}
	snap := schedSnapshot{
		Schema:     "trigene-sched/1",
		SNPs:       snapSNPs,
		Samples:    snapSamples,
		Seed:       snapSeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Kernel:     trigene.Kernel(),
	}
	for _, a := range []engine.Approach{engine.V2Split, engine.V4Vector, engine.V4Fused} {
		h, err := searcher.NewHotLoop(engine.Options{Approach: a, TopK: 4})
		if err != nil {
			return err
		}
		tiles := h.Tiles()
		// Warm-up: grow the top-K heap and fault in the pooled scratch.
		for i := int64(0); i < tiles && i < 32; i++ {
			h.Process(h.Tile(i))
		}
		var idx int64
		allocs := testing.AllocsPerRun(64, func() {
			h.Process(h.Tile(idx % tiles))
			idx++
		})
		before := h.Scored()
		start := time.Now()
		for i := int64(0); i < tiles; i++ {
			h.Process(h.Tile(i))
		}
		dur := time.Since(start)
		combos := h.Scored() - before
		hl := schedHotLoop{
			Approach:     a.String(),
			Tiles:        tiles,
			Combinations: combos,
			DurationMs:   float64(dur) / float64(time.Millisecond),
			AllocsPerOp:  allocs,
		}
		if secs := dur.Seconds(); secs > 0 {
			hl.TilesPerSec = float64(tiles) / secs
			hl.CombosPerSec = float64(combos) / secs
		}
		snap.HotLoops = append(snap.HotLoops, hl)
		h.Close()
	}

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "== Tile-scheduler hot-loop audit (%d SNPs x %d samples) -> %s ==\n",
		snapSNPs, snapSamples, outPath)
	t := report.NewTable("", "approach", "tiles", "tiles/s", "combos/s", "allocs/op")
	for _, hl := range snap.HotLoops {
		t.AddRowf(hl.Approach, hl.Tiles, hl.TilesPerSec, hl.CombosPerSec, hl.AllocsPerOp)
	}
	if err := render(t); err != nil {
		return err
	}
	for _, hl := range snap.HotLoops {
		if hl.AllocsPerOp > 0 {
			return fmt.Errorf("hot-path allocation regression: %s allocates %.2f per tile (want 0)",
				hl.Approach, hl.AllocsPerOp)
		}
	}
	return nil
}

// clusterPoint is one loopback cluster configuration of the scaling
// audit.
type clusterPoint struct {
	Workers      int     `json:"workers"`
	Tiles        int     `json:"tiles"`
	DurationMs   float64 `json:"durationMs"`
	TilesPerSec  float64 `json:"tilesPerSec"`
	CombosPerSec float64 `json:"combosPerSec"`
	Speedup      float64 `json:"speedupVsSingleNode"`
}

// clusterSnapshot is the machine-readable cluster scaling record.
type clusterSnapshot struct {
	Schema     string `json:"schema"`
	SNPs       int    `json:"snps"`
	Samples    int    `json:"samples"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	SingleNode struct {
		DurationMs   float64 `json:"durationMs"`
		CombosPerSec float64 `json:"combosPerSec"`
	} `json:"singleNode"`
	Points []clusterPoint `json:"points"`
}

// clusterExp audits the distributed tile-leasing subsystem on a
// loopback cluster: an in-process coordinator and 1/2/4 single-core
// workers run the fixed snapshot search end to end (submit → lease →
// heartbeat → merge) and the record captures tiles/sec against a
// single-core single-node run. All workers share this host, so the
// numbers measure coordination overhead and scaling shape, not
// multi-machine throughput; it also cross-checks that the merged
// Report matches the single-node one bit-exactly.
func clusterExp(outPath string) error {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snapSNPs, Samples: snapSamples, Seed: snapSeed})
	if err != nil {
		return err
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		return err
	}
	ctx := context.Background()
	spec := trigene.SearchSpec{TopK: 4, Workers: 1}
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	snap := clusterSnapshot{
		Schema:     "trigene-cluster/1",
		SNPs:       snapSNPs,
		Samples:    snapSamples,
		Seed:       snapSeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	start := time.Now()
	local, err := sess.Search(ctx, opts...)
	if err != nil {
		return err
	}
	singleDur := time.Since(start)
	snap.SingleNode.DurationMs = float64(singleDur) / float64(time.Millisecond)
	if secs := singleDur.Seconds(); secs > 0 {
		snap.SingleNode.CombosPerSec = float64(local.Combinations) / secs
	}

	co := cluster.NewCoordinator(cluster.Config{LeaseTTL: 10 * time.Second})
	srv := httptest.NewServer(co)
	defer srv.Close()
	cl := cluster.NewClient(srv.URL)
	cl.Poll = 5 * time.Millisecond

	const tiles = 32
	for _, n := range []int{1, 2, 4} {
		wctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			w := &cluster.Worker{Client: cl, ID: fmt.Sprintf("bench-w%d", i), Poll: 5 * time.Millisecond}
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Run(wctx)
			}()
		}
		start := time.Now()
		id, err := cl.Submit(ctx, mx, spec, tiles, fmt.Sprintf("bench-%dw", n))
		if err == nil {
			var rep *trigene.Report
			if rep, err = cl.Wait(ctx, id); err == nil &&
				(rep.Combinations != local.Combinations || rep.Best.Score != local.Best.Score) {
				err = fmt.Errorf("cluster report diverged from single-node (combos %d vs %d)",
					rep.Combinations, local.Combinations)
			}
		}
		dur := time.Since(start)
		cancel()
		wg.Wait()
		if err != nil {
			return fmt.Errorf("%d workers: %w", n, err)
		}
		p := clusterPoint{Workers: n, Tiles: tiles, DurationMs: float64(dur) / float64(time.Millisecond)}
		if secs := dur.Seconds(); secs > 0 {
			p.TilesPerSec = float64(tiles) / secs
			p.CombosPerSec = float64(local.Combinations) / secs
		}
		if snap.SingleNode.DurationMs > 0 {
			p.Speedup = snap.SingleNode.DurationMs / p.DurationMs
		}
		snap.Points = append(snap.Points, p)
	}

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "== Loopback cluster scaling (%d SNPs x %d samples, %d tiles) -> %s ==\n",
		snapSNPs, snapSamples, tiles, outPath)
	t := report.NewTable("", "workers", "duration", "tiles/s", "combos/s", "speedup vs single")
	t.AddRowf("single-node", fmt.Sprintf("%.1f ms", snap.SingleNode.DurationMs), "-",
		snap.SingleNode.CombosPerSec, report.Speedup(1))
	for _, p := range snap.Points {
		t.AddRowf(p.Workers, fmt.Sprintf("%.1f ms", p.DurationMs), p.TilesPerSec,
			p.CombosPerSec, report.Speedup(p.Speedup))
	}
	return render(t)
}

// planPoint is one backend's predicted-vs-measured record in the
// autotuning audit.
type planPoint struct {
	Backend               string  `json:"backend"`
	Approach              string  `json:"approach"`
	Grain                 int64   `json:"grain"`
	PlannedCPUFraction    float64 `json:"plannedCpuFraction,omitempty"`
	RealizedCPUFraction   float64 `json:"realizedCpuFraction,omitempty"`
	PredictedTilesPerSec  float64 `json:"predictedTilesPerSec"`
	MeasuredTilesPerSec   float64 `json:"measuredTilesPerSec"`
	PredictedGElemsPerSec float64 `json:"predictedGigaElementsPerSec"`
	MeasuredGElemsPerSec  float64 `json:"measuredGigaElementsPerSec"`
}

// planSnapshot is the machine-readable autotuning audit record.
type planSnapshot struct {
	Schema     string      `json:"schema"`
	SNPs       int         `json:"snps"`
	Samples    int         `json:"samples"`
	Seed       int64       `json:"seed"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Points     []planPoint `json:"points"`
}

// planExp is the prediction-sanity audit of the model-driven
// autotuner: for each backend it runs the fixed snapshot search twice
// — untuned and under WithAutoTune — and records the planner's
// predicted tiles/sec next to the host-measured rate at the grain the
// plan chose (measured tiles = combinations / plan grain, a uniform
// currency across backends; on gpusim the wall time is the
// simulator's own host cost). The gate is sanity, not accuracy: the
// predictions come from the paper's device models, the measurements
// from whatever container CI runs in. The run fails if a plan trace
// is missing or malformed (grain outside the scheduler clamps,
// non-positive predictions) or — the real teeth — if the autotuned
// Report diverges from the untuned one.
func planExp(outPath string) error {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snapSNPs, Samples: snapSamples, Seed: snapSeed})
	if err != nil {
		return err
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		return err
	}
	ctx := context.Background()
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		return err
	}
	snap := planSnapshot{
		Schema:     "trigene-plan/1",
		SNPs:       snapSNPs,
		Samples:    snapSamples,
		Seed:       snapSeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	cases := []struct {
		name    string
		backend trigene.Backend // nil = the planner chooses
	}{
		{"auto", nil},
		{"hetero", trigene.Hetero()},
		{"gpusim:GN1", trigene.GPUSim(gn1)},
	}
	for _, tc := range cases {
		pin := []trigene.Option{trigene.WithTopK(4)}
		if tc.backend != nil {
			pin = append(pin, trigene.WithBackend(tc.backend))
		}
		tuned, err := sess.Search(ctx, append(pin, trigene.WithAutoTune())...)
		if err != nil {
			return fmt.Errorf("%s autotuned: %w", tc.name, err)
		}
		p := tuned.Plan
		if p == nil {
			return fmt.Errorf("%s: autotuned Report carries no plan", tc.name)
		}
		if p.Grain < sched.MinGrain || p.Grain > sched.MaxGrain {
			return fmt.Errorf("%s: plan grain %d escapes the scheduler clamps [%d, %d]", tc.name, p.Grain, sched.MinGrain, sched.MaxGrain)
		}
		if p.PredictedCombosPerSec <= 0 || p.PredictedTilesPerSec <= 0 {
			return fmt.Errorf("%s: plan predicts nothing: %+v", tc.name, p)
		}
		// Parity gate: the plan may only change execution, never results.
		plainOpts := []trigene.Option{trigene.WithTopK(4)}
		if tc.backend != nil {
			plainOpts = append(plainOpts, trigene.WithBackend(tc.backend))
		}
		plain, err := sess.Search(ctx, plainOpts...)
		if err != nil {
			return fmt.Errorf("%s untuned: %w", tc.name, err)
		}
		if tuned.Combinations != plain.Combinations || len(tuned.TopK) != len(plain.TopK) {
			return fmt.Errorf("%s: autotuned run diverged (%d combos vs %d)", tc.name, tuned.Combinations, plain.Combinations)
		}
		for i := range plain.TopK {
			if tuned.TopK[i].Score != plain.TopK[i].Score {
				return fmt.Errorf("%s: autotuned top-%d score %v != %v", tc.name, i+1, tuned.TopK[i].Score, plain.TopK[i].Score)
			}
		}

		pt := planPoint{
			Backend:               tuned.Backend,
			Approach:              tuned.Approach,
			Grain:                 p.Grain,
			PredictedTilesPerSec:  p.PredictedTilesPerSec,
			PredictedGElemsPerSec: p.PredictedCPUGElems + p.PredictedGPUGElems,
			MeasuredGElemsPerSec:  tuned.ElementsPerSec / 1e9,
		}
		if secs := tuned.Duration.Seconds(); secs > 0 {
			pt.MeasuredTilesPerSec = float64(tuned.Combinations) / float64(p.Grain) / secs
		}
		if pt.MeasuredTilesPerSec <= 0 {
			return fmt.Errorf("%s: no measured throughput", tc.name)
		}
		if tuned.Hetero != nil {
			pt.PlannedCPUFraction = p.CPUFraction
			pt.RealizedCPUFraction = tuned.Hetero.CPUFraction
		}
		snap.Points = append(snap.Points, pt)
	}

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "== Autotuning prediction audit (%d SNPs x %d samples) -> %s ==\n",
		snapSNPs, snapSamples, outPath)
	t := report.NewTable("", "backend", "approach", "grain", "pred tiles/s", "meas tiles/s", "planned split", "realized split")
	for _, pt := range snap.Points {
		planned, realized := "-", "-"
		if pt.RealizedCPUFraction > 0 {
			planned = fmt.Sprintf("%.2f", pt.PlannedCPUFraction)
			realized = fmt.Sprintf("%.2f", pt.RealizedCPUFraction)
		}
		t.AddRowf(pt.Backend, pt.Approach, pt.Grain, pt.PredictedTilesPerSec, pt.MeasuredTilesPerSec, planned, realized)
	}
	return render(t)
}

// energyExp models the paper's future-work direction: DVFS sweeps and
// the energy-optimal operating point per device.
func energyExp() error {
	fmt.Fprintln(out, "== DVFS energy study (modeled, paper future work), 8192 SNPs x 16384 samples ==")
	t := report.NewTable("", "device", "nominal GHz", "G elem/J @nominal", "optimal GHz", "G elem/J @optimal", "gain")
	add := func(id string, m energy.DVFSModel) {
		nom := m.EfficiencyAt(m.NominalGHz)
		opt := m.OptimalGHz()
		best := m.EfficiencyAt(opt)
		t.AddRowf(id, m.NominalGHz, nom, opt, best, report.Speedup(best/nom))
	}
	for _, c := range device.AllCPUs() {
		add(c.ID, energy.ForCPU(c, 8192, figSamples))
	}
	for _, g := range device.AllGPUs() {
		add(g.ID, energy.ForGPU(g, 8192, figSamples))
	}
	if err := render(t); err != nil {
		return err
	}
	gi2, err := device.GPUByID("GI2")
	if err != nil {
		return err
	}
	sweep, err := energy.ForGPU(gi2, 8192, figSamples).Sweep(7)
	if err != nil {
		return err
	}
	st := report.NewTable("GI2 DVFS sweep", "GHz", "watts", "G elem/s", "G elem/J")
	for _, p := range sweep {
		st.AddRowf(p.GHz, p.Watts, p.GElems, p.Efficiency)
	}
	return render(st)
}

// ---------------------------------------------------------------------
// encoded-dataset store audit (-exp store)

// storeSnapshot is the BENCH_PR5.json schema: the cost of building
// each representation from scratch vs loading it from a .tpack, and
// the dataset's size in each wire form.
type storeSnapshot struct {
	Schema     string `json:"schema"`
	SNPs       int    `json:"snps"`
	Samples    int    `json:"samples"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// ColdMs is the from-scratch cost per representation (text parse,
	// then each encode over the parsed matrix).
	ColdMs struct {
		ParseText   float64 `json:"parseText"`
		Binarize    float64 `json:"binarize"`
		Split       float64 `json:"split"`
		Words32     float64 `json:"words32"`
		ClassPlanes float64 `json:"classPlanes"`
	} `json:"coldMs"`

	// PackMs is the pack path: one write, then loads that adopt the
	// binarized and split planes with no re-encode.
	PackMs struct {
		Write    float64 `json:"write"`
		ReadHeap float64 `json:"readHeap"`
		OpenMmap float64 `json:"openMmap"`
	} `json:"packMs"`
	Mapped bool `json:"mapped"`

	// WireBytes compares the dataset's size per format.
	WireBytes struct {
		Text   int `json:"text"`
		Binary int `json:"binary"`
		Pack   int `json:"pack"`
	} `json:"wireBytes"`

	// SpeedupVsReencode is (cold binarize + split) / pack load — the
	// job-start saving a worker sees on a cache hit. The audit fails
	// below 1.
	SpeedupVsReencode struct {
		ReadHeap float64 `json:"readHeap"`
		OpenMmap float64 `json:"openMmap"`
	} `json:"speedupVsReencode"`
}

// storeBenchReps is how many times each timed step runs; the median
// lands in the snapshot so one scheduler hiccup cannot fail CI.
const storeBenchReps = 5

// medianMs times f storeBenchReps times and returns the median in ms.
func medianMs(f func() error) (float64, error) {
	var times []float64
	for i := 0; i < storeBenchReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start))/float64(time.Millisecond))
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

func storeExp(outPath string) error {
	const (
		storeSNPs    = 384
		storeSamples = 4096
		storeSeed    = 23
	)
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: storeSNPs, Samples: storeSamples, Seed: storeSeed})
	if err != nil {
		return err
	}
	snap := storeSnapshot{
		Schema:     "trigene-store/1",
		SNPs:       storeSNPs,
		Samples:    storeSamples,
		Seed:       storeSeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// Wire sizes.
	var text, bin bytes.Buffer
	if err := trigene.WriteText(&text, mx); err != nil {
		return err
	}
	if err := trigene.WriteBinary(&bin, mx); err != nil {
		return err
	}
	st, err := store.New(mx)
	if err != nil {
		return err
	}
	var pack bytes.Buffer
	snap.PackMs.Write, err = medianMs(func() error {
		pack.Reset()
		return st.WritePack(&pack)
	})
	if err != nil {
		return err
	}
	snap.WireBytes.Text = text.Len()
	snap.WireBytes.Binary = bin.Len()
	snap.WireBytes.Pack = pack.Len()

	// Cold path: parse the text form, then build each encoding fresh.
	snap.ColdMs.ParseText, err = medianMs(func() error {
		_, err := trigene.ReadText(bytes.NewReader(text.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	// Time the raw encodes alone — the exact work a pack load skips —
	// not store.New's one-time validation walk.
	if snap.ColdMs.Binarize, err = medianMs(func() error {
		dataset.Binarize(mx)
		return nil
	}); err != nil {
		return err
	}
	if snap.ColdMs.Split, err = medianMs(func() error {
		dataset.SplitBinarize(mx)
		return nil
	}); err != nil {
		return err
	}
	split := st.Split()
	if snap.ColdMs.Words32, err = medianMs(func() error {
		dataset.BuildWords32(split, dataset.LayoutTiled, 32)
		return nil
	}); err != nil {
		return err
	}
	if snap.ColdMs.ClassPlanes, err = medianMs(func() error {
		dataset.BuildClassPlanes(mx)
		return nil
	}); err != nil {
		return err
	}

	// Packed path: heap decode (the wire form) and mmap open.
	var loaded *store.Store
	if snap.PackMs.ReadHeap, err = medianMs(func() error {
		loaded, err = store.ReadPack(bytes.NewReader(pack.Bytes()))
		return err
	}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "trigene-store-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	packPath := dir + "/bench.tpack"
	if err := os.WriteFile(packPath, pack.Bytes(), 0o644); err != nil {
		return err
	}
	var mapped *store.Store
	if snap.PackMs.OpenMmap, err = medianMs(func() error {
		if mapped != nil {
			mapped.Close()
		}
		mapped, err = store.Open(packPath)
		return err
	}); err != nil {
		return err
	}
	defer mapped.Close()
	snap.Mapped = mapped.Mapped()

	// Correctness cross-check: the loaded stores carry the same content
	// and adopt the encodings without rebuilding them.
	if loaded.Hash() != st.Hash() || mapped.Hash() != st.Hash() {
		return fmt.Errorf("pack load changed the dataset hash")
	}
	if b := loaded.Builds(); b.Binarized != 0 || b.Split != 0 {
		return fmt.Errorf("heap pack load re-encoded: %+v", b)
	}

	reencode := snap.ColdMs.Binarize + snap.ColdMs.Split
	if snap.PackMs.ReadHeap > 0 {
		snap.SpeedupVsReencode.ReadHeap = reencode / snap.PackMs.ReadHeap
	}
	if snap.PackMs.OpenMmap > 0 {
		snap.SpeedupVsReencode.OpenMmap = reencode / snap.PackMs.OpenMmap
	}

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(out, "== Encoded-dataset store audit (%d SNPs x %d samples) -> %s ==\n",
		storeSNPs, storeSamples, outPath)
	t := report.NewTable("", "step", "cold ms", "packed ms")
	t.AddRowf("parse text", snap.ColdMs.ParseText, "-")
	t.AddRowf("binarize (V1 planes)", snap.ColdMs.Binarize, "adopted")
	t.AddRowf("split (V2+ planes)", snap.ColdMs.Split, "adopted")
	t.AddRowf("words32 tiled", snap.ColdMs.Words32, "lazy")
	t.AddRowf("class planes", snap.ColdMs.ClassPlanes, "lazy")
	t.AddRowf("pack load (heap)", "-", snap.PackMs.ReadHeap)
	t.AddRowf("pack load (mmap)", "-", snap.PackMs.OpenMmap)
	if err := render(t); err != nil {
		return err
	}
	w := report.NewTable("bytes on wire", "format", "bytes")
	w.AddRowf("text", snap.WireBytes.Text)
	w.AddRowf("binary", snap.WireBytes.Binary)
	w.AddRowf("pack (.tpack)", snap.WireBytes.Pack)
	if err := render(w); err != nil {
		return err
	}
	fmt.Fprintf(out, "packed load vs re-encode: %.1fx (heap), %.1fx (mmap, mapped=%v)\n",
		snap.SpeedupVsReencode.ReadHeap, snap.SpeedupVsReencode.OpenMmap, snap.Mapped)

	// The audit gate: loading prebuilt encodings must beat rebuilding
	// them, on both load paths.
	if snap.SpeedupVsReencode.ReadHeap <= 1 {
		return fmt.Errorf("heap pack load (%.2f ms) is not faster than re-encoding (%.2f ms)",
			snap.PackMs.ReadHeap, reencode)
	}
	if snap.SpeedupVsReencode.OpenMmap <= 1 {
		return fmt.Errorf("mmap pack load (%.2f ms) is not faster than re-encoding (%.2f ms)",
			snap.PackMs.OpenMmap, reencode)
	}
	return nil
}

// ---------------------------------------------------------------------
// durable-coordinator audit (-exp durable)

// durableRecoveryPoint is one restart measurement: a state directory
// holding the given number of running jobs, recovered from scratch.
type durableRecoveryPoint struct {
	Jobs           int     `json:"jobs"`
	TilesPerJob    int     `json:"tilesPerJob"`
	JournalRecords int     `json:"journalRecords"`
	SnapshotBytes  int64   `json:"snapshotBytes"`
	RecoveryMs     float64 `json:"recoveryMs"`
}

// durableSnapshot is the BENCH_PR6.json schema: the raw journal's
// append cost, recovery cost as the retained state grows, and the
// lease-grant throughput a journaling coordinator sustains relative to
// the in-memory one.
type durableSnapshot struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// Journal is the internal/wal micro-benchmark: the per-record cost
	// of a buffered Append (the grant path) and of an Append+Sync pair
	// (the sync-on-ack path a submit or completion pays).
	Journal struct {
		PayloadBytes     int     `json:"payloadBytes"`
		BufferedAppendUs float64 `json:"bufferedAppendUs"`
		SyncedAppendUs   float64 `json:"syncedAppendUs"`
	} `json:"journal"`

	// Recovery is snapshot size and Recover() wall time vs job count.
	Recovery []durableRecoveryPoint `json:"recovery"`

	// LeaseThroughput compares grants/sec over loopback HTTP (the path
	// workers drive) with journaling on vs off. The audit fails when
	// Ratio drops below 0.9 — journaling must stay off the grant path's
	// critical cost (grants are buffered, never fsynced).
	LeaseThroughput struct {
		Tiles               int     `json:"tiles"`
		MemoryGrantsPerSec  float64 `json:"memoryGrantsPerSec"`
		DurableGrantsPerSec float64 `json:"durableGrantsPerSec"`
		Ratio               float64 `json:"ratio"`
	} `json:"leaseThroughput"`
}

// callJSON drives an http.Handler directly (no sockets): one JSON
// request in, the decoded JSON body out. Returns the status code; non-
// 2xx answers come back as errors.
func callJSON(h http.Handler, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, body)
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code < 200 || rr.Code > 299 {
		return rr.Code, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rr.Code, bytes.TrimSpace(rr.Body.Bytes()))
	}
	if out != nil && rr.Code != http.StatusNoContent {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			return rr.Code, err
		}
	}
	return rr.Code, nil
}

// submitJob posts one job through the handler and returns its ID.
func submitJob(h http.Handler, mx *trigene.Matrix, tiles int, name string) (string, error) {
	var data bytes.Buffer
	if err := trigene.WriteBinary(&data, mx); err != nil {
		return "", err
	}
	var resp cluster.SubmitResponse
	_, err := callJSON(h, http.MethodPost, "/v1/jobs", cluster.SubmitRequest{
		Name:    name,
		Spec:    trigene.SearchSpec{TopK: 4},
		Tiles:   tiles,
		Dataset: data.Bytes(),
	}, &resp)
	if err != nil {
		return "", err
	}
	return resp.ID, nil
}

// postJSON posts one JSON request to a live coordinator and decodes
// the body into out (nil discards it). Returns the status code; non-
// 2xx answers come back as errors.
func postJSON(hc *http.Client, url string, in, out any) (int, error) {
	raw, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// grantRep submits one fresh job to a live coordinator and times
// draining all its tiles through POST /v1/lease over loopback HTTP —
// the path workers actually drive, so the measured rate includes the
// wire cost a real deployment pays per grant. The submit stays outside
// the timed window: its fsync is the sync-on-ack cost, not the grant
// path under audit.
func grantRep(base string, hc *http.Client, mx *trigene.Matrix, tiles int, label string) (float64, error) {
	cl := cluster.NewClient(base)
	cl.HTTPClient = hc
	if _, err := cl.Submit(context.Background(), mx, trigene.SearchSpec{TopK: 4}, tiles, label); err != nil {
		return 0, err
	}
	granted := 0
	start := time.Now()
	for granted < tiles {
		var g cluster.LeaseGrant
		code, err := postJSON(hc, base+"/v1/lease", cluster.LeaseRequest{Worker: label}, &g)
		if err != nil {
			return 0, err
		}
		if code == http.StatusNoContent {
			return 0, fmt.Errorf("%s: coordinator ran dry after %d of %d grants", label, granted, tiles)
		}
		if n := len(g.Granted); n > 0 {
			granted += n
		} else {
			granted++
		}
	}
	secs := time.Since(start).Seconds()
	if secs <= 0 {
		return 0, fmt.Errorf("%s: no measurable grant rate", label)
	}
	return float64(tiles) / secs, nil
}

// median of a non-empty sample (sorts in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// durableExp audits the durable coordinator (internal/wal + Recover):
// raw journal append cost, snapshot size and recovery time as the
// number of live jobs grows, and — the regression gate — the lease-
// grant throughput of a journaling coordinator against the in-memory
// one. Grants are journaled through the buffer only (sync-on-ack
// covers submits, completions and finishes), so journaling must cost
// the grant path less than 10%; the run exits nonzero otherwise.
func durableExp(outPath string) error {
	snap := durableSnapshot{
		Schema:     "trigene-durable/1",
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	root, err := os.MkdirTemp("", "trigene-durable-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Journal micro-benchmark. The payload is shaped like the grant
	// record the coordinator journals most often.
	payload := []byte(`{"t":"grant","job":"j1","tile":12,"seq":4096,"attempt":1,"worker":"bench-w0","ns":1700000000000000000}`)
	l, err := wal.Open(filepath.Join(root, "journal"))
	if err != nil {
		return err
	}
	const bufferedAppends = 8192
	start := time.Now()
	for i := 0; i < bufferedAppends; i++ {
		if err := l.Append(payload); err != nil {
			return err
		}
	}
	bufDur := time.Since(start)
	if err := l.Sync(); err != nil {
		return err
	}
	const syncedAppends = 128
	start = time.Now()
	for i := 0; i < syncedAppends; i++ {
		if err := l.Append(payload); err != nil {
			return err
		}
		if err := l.Sync(); err != nil {
			return err
		}
	}
	syncDur := time.Since(start)
	if err := l.Close(); err != nil {
		return err
	}
	snap.Journal.PayloadBytes = len(payload)
	snap.Journal.BufferedAppendUs = float64(bufDur) / float64(time.Microsecond) / bufferedAppends
	snap.Journal.SyncedAppendUs = float64(syncDur) / float64(time.Microsecond) / syncedAppends

	// Recovery vs job count: J running jobs (distinct datasets, so the
	// pack store holds J packs), coordinator closed, then Recover timed
	// cold — replay, pack reload and the post-recovery compaction.
	const recoveryTiles = 8
	for _, jobs := range []int{1, 4, 16} {
		cfg := cluster.Config{
			LeaseTTL: time.Minute,
			StateDir: filepath.Join(root, fmt.Sprintf("state-%d", jobs)),
		}
		co, err := cluster.Recover(cfg)
		if err != nil {
			return err
		}
		for i := 0; i < jobs; i++ {
			mx, err := trigene.Generate(trigene.GenConfig{
				SNPs: snapSNPs, Samples: snapSamples, Seed: snapSeed + int64(1000*jobs+i),
			})
			if err != nil {
				return err
			}
			if _, err := submitJob(co, mx, recoveryTiles, fmt.Sprintf("recov-%d-%d", jobs, i)); err != nil {
				return err
			}
		}
		if err := co.Close(); err != nil {
			return err
		}
		jl, err := wal.Open(cfg.StateDir)
		if err != nil {
			return err
		}
		records := len(jl.Records())
		if err := jl.Close(); err != nil {
			return err
		}
		start := time.Now()
		co2, err := cluster.Recover(cfg)
		if err != nil {
			return err
		}
		recoveryMs := float64(time.Since(start)) / float64(time.Millisecond)
		fi, err := os.Stat(filepath.Join(cfg.StateDir, "snapshot.snap"))
		if err != nil {
			return fmt.Errorf("recovery left no snapshot: %w", err)
		}
		if err := co2.Close(); err != nil {
			return err
		}
		snap.Recovery = append(snap.Recovery, durableRecoveryPoint{
			Jobs:           jobs,
			TilesPerJob:    recoveryTiles,
			JournalRecords: records,
			SnapshotBytes:  fi.Size(),
			RecoveryMs:     recoveryMs,
		})
	}

	// Lease-grant throughput, journaling off vs on.
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snapSNPs, Samples: snapSamples, Seed: snapSeed})
	if err != nil {
		return err
	}
	const leaseTiles = 512
	hc := &http.Client{}
	memCo := cluster.NewCoordinator(cluster.Config{LeaseTTL: 10 * time.Minute})
	memSrv := httptest.NewServer(memCo)
	defer memSrv.Close()
	durCo, err := cluster.Recover(cluster.Config{
		LeaseTTL: 10 * time.Minute,
		StateDir: filepath.Join(root, "lease-state"),
	})
	if err != nil {
		return err
	}
	defer durCo.Close()
	durSrv := httptest.NewServer(durCo)
	defer durSrv.Close()
	// Warm-up: the first grants fault in the JSON machinery, connection
	// pool and scheduler paths, and must not bill either side.
	if _, err := grantRep(memSrv.URL, hc, mx, leaseTiles, "bench-warmup-mem"); err != nil {
		return err
	}
	if _, err := grantRep(durSrv.URL, hc, mx, leaseTiles, "bench-warmup-durable"); err != nil {
		return err
	}
	// Paired reps: each rep measures both coordinators back to back and
	// contributes one durable/memory ratio, so clock-frequency drift and
	// scheduler hiccups hit both sides of a pair alike; the gate is the
	// median of the per-pair ratios.
	var memRates, durRates, ratios []float64
	for r := 0; r < storeBenchReps; r++ {
		m, err := grantRep(memSrv.URL, hc, mx, leaseTiles, fmt.Sprintf("bench-mem-%d", r))
		if err != nil {
			return err
		}
		d, err := grantRep(durSrv.URL, hc, mx, leaseTiles, fmt.Sprintf("bench-durable-%d", r))
		if err != nil {
			return err
		}
		memRates = append(memRates, m)
		durRates = append(durRates, d)
		ratios = append(ratios, d/m)
	}
	memRate, durRate := median(memRates), median(durRates)
	snap.LeaseThroughput.Tiles = leaseTiles
	snap.LeaseThroughput.MemoryGrantsPerSec = memRate
	snap.LeaseThroughput.DurableGrantsPerSec = durRate
	snap.LeaseThroughput.Ratio = median(ratios)

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(out, "== Durable coordinator audit -> %s ==\n", outPath)
	jt := report.NewTable("journal append (payload "+fmt.Sprint(snap.Journal.PayloadBytes)+" B)",
		"path", "µs/record")
	jt.AddRowf("buffered (grant path)", snap.Journal.BufferedAppendUs)
	jt.AddRowf("append+fsync (sync-on-ack)", snap.Journal.SyncedAppendUs)
	if err := render(jt); err != nil {
		return err
	}
	rt := report.NewTable("recovery vs job count", "jobs", "journal records", "snapshot bytes", "recovery ms")
	for _, p := range snap.Recovery {
		rt.AddRowf(p.Jobs, p.JournalRecords, p.SnapshotBytes, p.RecoveryMs)
	}
	if err := render(rt); err != nil {
		return err
	}
	lt := report.NewTable(fmt.Sprintf("lease-grant throughput (%d tiles/job, median of %d)", leaseTiles, storeBenchReps),
		"coordinator", "grants/s", "vs memory")
	lt.AddRowf("in-memory", snap.LeaseThroughput.MemoryGrantsPerSec, report.Speedup(1))
	lt.AddRowf("journaling", snap.LeaseThroughput.DurableGrantsPerSec, report.Speedup(snap.LeaseThroughput.Ratio))
	if err := render(lt); err != nil {
		return err
	}

	if snap.LeaseThroughput.Ratio < 0.9 {
		return fmt.Errorf("journaling regresses lease-grant throughput beyond 10%%: %.0f/s vs %.0f/s (median paired ratio %.3f, want >= 0.9)",
			durRate, memRate, snap.LeaseThroughput.Ratio)
	}
	return nil
}

// ---------------------------------------------------------------------
// fused-kernel audit (-exp kernels)

// kernelPoint is one measured (pipeline, tile shape) configuration.
type kernelPoint struct {
	Approach     string  `json:"approach"`
	BlockSNPs    int     `json:"blockSnps"`
	BlockWords   int     `json:"blockWords"`
	DurationMs   float64 `json:"durationMs"`
	GElemsPerSec float64 `json:"gigaElementsPerSec"`
}

// kernelsSnapshot is the BENCH_PR7.json schema: the blocked pipelines
// and their fused variants across tile shapes, and the headline
// fused-vs-unfused speedups (best tile shape on each side).
type kernelsSnapshot struct {
	Schema     string        `json:"schema"`
	SNPs       int           `json:"snps"`
	Samples    int           `json:"samples"`
	Seed       int64         `json:"seed"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Kernel     string        `json:"kernel"` // fused-kernel implementation behind the V4F rows
	Reps       int           `json:"reps"`
	Points     []kernelPoint `json:"points"`
	SpeedupV3F float64       `json:"speedupV3FvsV3"`
	SpeedupV4F float64       `json:"speedupV4FvsV4"`
}

// kernelsExp is the fused-kernel audit: on a fixed dataset it measures
// the host G elements/s of the blocked scalar (V3/V3F) and unrolled
// (V4/V4F) pipelines at several tile shapes — both pipelines of a pair
// run the same tile, so V3F against V3 shows what the cached pair block
// saves in pure Go, and V4F against V4 adds the host's tuned bodies
// (the snapshot's "kernel"). Each rep runs the four pipelines back to back and
// contributes one fused/unfused ratio per pair, so clock drift and
// co-tenant noise hit both sides of a ratio alike; the headline
// speedups are the medians of those paired ratios across reps and
// tiles. Every run is cross-checked against the unfused result
// bit-exactly, and the audit (and CI with it) fails if the fused V4F
// does not beat the unfused V4.
func kernelsExp(outPath string) error {
	const (
		kernSNPs    = 128
		kernSamples = 4096
		kernSeed    = 29
		kernReps    = 3
	)
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: kernSNPs, Samples: kernSamples, Seed: kernSeed})
	if err != nil {
		return err
	}
	searcher, err := engine.New(mx)
	if err != nil {
		return err
	}
	snap := kernelsSnapshot{
		Schema:     "trigene-kernels/1",
		SNPs:       kernSNPs,
		Samples:    kernSamples,
		Seed:       kernSeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Kernel:     trigene.Kernel(),
		Reps:       kernReps,
	}
	tiles := []struct{ bs, bw int }{
		{8, 64},
		{16, 32},
		{32, 16},
	}
	pipelines := []engine.Approach{engine.V3Blocked, engine.V3Fused, engine.V4Vector, engine.V4Fused}
	// Reference result for the bit-exactness cross-check.
	ref, err := searcher.Run(engine.Options{Approach: engine.V2Split})
	if err != nil {
		return err
	}
	best := map[engine.Approach]float64{}
	durMs := map[engine.Approach]float64{}
	var ratiosV3F, ratiosV4F []float64
	for _, tl := range tiles {
		rates := map[engine.Approach][]float64{}
		for r := 0; r < kernReps; r++ {
			rep := map[engine.Approach]float64{}
			for _, a := range pipelines {
				opts := engine.Options{Approach: a, BlockSNPs: tl.bs, BlockWords: tl.bw}
				res, err := searcher.Run(opts)
				if err != nil {
					return fmt.Errorf("%v %dx%d: %w", a, tl.bs, tl.bw, err)
				}
				if res.Best.Triple != ref.Best.Triple || res.Best.Score != ref.Best.Score {
					return fmt.Errorf("%v %dx%d: best diverged from V2 reference", a, tl.bs, tl.bw)
				}
				rep[a] = res.Stats.ElementsPerSec
				rates[a] = append(rates[a], res.Stats.ElementsPerSec)
				durMs[a] = float64(res.Stats.Duration) / float64(time.Millisecond)
			}
			ratiosV3F = append(ratiosV3F, rep[engine.V3Fused]/rep[engine.V3Blocked])
			ratiosV4F = append(ratiosV4F, rep[engine.V4Fused]/rep[engine.V4Vector])
		}
		for _, a := range pipelines {
			// Max, not median: throughput under scheduler interference
			// only loses, so the best rep is the cleanest per-tile
			// estimate (the gate uses the paired ratios, not these).
			rate := maxRate(rates[a])
			if rate > best[a] {
				best[a] = rate
			}
			snap.Points = append(snap.Points, kernelPoint{
				Approach:     a.String(),
				BlockSNPs:    tl.bs,
				BlockWords:   tl.bw,
				DurationMs:   durMs[a],
				GElemsPerSec: rate / 1e9,
			})
		}
	}
	snap.SpeedupV3F = median(ratiosV3F)
	snap.SpeedupV4F = median(ratiosV4F)

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(out, "== Fused-kernel audit (%d SNPs x %d samples, best of %d, V4F kernel %s) -> %s ==\n",
		kernSNPs, kernSamples, kernReps, snap.Kernel, outPath)
	t := report.NewTable("", "approach", "tile", "G elem/s")
	for _, p := range snap.Points {
		t.AddRowf(p.Approach, fmt.Sprintf("%dx%d", p.BlockSNPs, p.BlockWords), p.GElemsPerSec)
	}
	if err := render(t); err != nil {
		return err
	}
	fmt.Fprintf(out, "median paired speedup: V3F %s vs V3, V4F %s vs V4\n",
		report.Speedup(snap.SpeedupV3F), report.Speedup(snap.SpeedupV4F))

	// The audit gate: caching the pair planes must pay off on the
	// vector pipeline, the one the planner defaults to.
	if snap.SpeedupV4F <= 1 {
		return fmt.Errorf("fused V4F does not beat unfused V4: median paired speedup %.3f (best rates %.2f vs %.2f G elem/s)",
			snap.SpeedupV4F, best[engine.V4Fused]/1e9, best[engine.V4Vector]/1e9)
	}
	return nil
}

// ---------------------------------------------------------------------
// observability-overhead audit (-exp obs)

// obsSnapshot is the BENCH_PR8.json schema: the V4F hot loop's
// tiles/sec with a live metrics registry attached vs without, and the
// steady-state allocations per tile with the registry on.
type obsSnapshot struct {
	Schema     string `json:"schema"`
	SNPs       int    `json:"snps"`
	Samples    int    `json:"samples"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Approach   string `json:"approach"`
	Tiles      int64  `json:"tiles"`
	Reps       int    `json:"reps"`

	PlainTilesPerSec        float64 `json:"plainTilesPerSec"`
	MetricsTilesPerSec      float64 `json:"metricsTilesPerSec"`
	MedianPairedRatio       float64 `json:"medianPairedRatio"` // metrics / plain
	OverheadPct             float64 `json:"overheadPct"`
	AllocsPerOpWithRegistry float64 `json:"allocsPerOpWithRegistry"`
	ScrapedSeries           int     `json:"scrapedSeries"`
}

// obsPasses is how many full drains one rate measurement times: a
// single drain of the fixed dataset is a few tens of milliseconds,
// short enough for scheduler noise to swamp a 2% effect.
const obsPasses = 8

// obsHotLoopRate drains every tile of one fresh V4F hot loop
// obsPasses times and returns tiles/sec (reg nil = uninstrumented).
func obsHotLoopRate(searcher *engine.Searcher, reg *obs.Registry) (float64, int64, error) {
	h, err := searcher.NewHotLoop(engine.Options{Approach: engine.V4Fused, TopK: 4, Metrics: reg})
	if err != nil {
		return 0, 0, err
	}
	defer h.Close()
	tiles := h.Tiles()
	start := time.Now()
	for p := 0; p < obsPasses; p++ {
		for i := int64(0); i < tiles; i++ {
			h.Process(h.Tile(i))
		}
	}
	secs := time.Since(start).Seconds()
	if secs <= 0 {
		return 0, 0, fmt.Errorf("no measurable hot-loop rate")
	}
	return float64(obsPasses) * float64(tiles) / secs, tiles, nil
}

// obsExp audits the cost of the observability layer on the hottest
// path in the repository: the V4F claim→score loop. Each rep runs the
// loop uninstrumented and with a live registry back to back and
// contributes one metrics/plain ratio, so clock drift and co-tenant
// noise hit both sides of a pair alike; the headline overhead is the
// median of the paired ratios. The audit (and CI with it) fails if
// instrumentation costs more than 2% of tiles/sec or allocates on the
// hot path, and cross-checks that a /metrics-style scrape of the live
// registry actually carries the engine series.
func obsExp(outPath string) error {
	const obsReps = 7
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snapSNPs, Samples: snapSamples, Seed: snapSeed})
	if err != nil {
		return err
	}
	searcher, err := engine.New(mx)
	if err != nil {
		return err
	}
	snap := obsSnapshot{
		Schema:     "trigene-obs/1",
		SNPs:       snapSNPs,
		Samples:    snapSamples,
		Seed:       snapSeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Approach:   engine.V4Fused.String(),
		Reps:       obsReps,
	}
	reg := obs.NewRegistry()

	// Steady-state allocations per tile with the registry live.
	h, err := searcher.NewHotLoop(engine.Options{Approach: engine.V4Fused, TopK: 4, Metrics: reg})
	if err != nil {
		return err
	}
	tiles := h.Tiles()
	for i := int64(0); i < tiles && i < 32; i++ {
		h.Process(h.Tile(i))
	}
	var idx int64
	snap.AllocsPerOpWithRegistry = testing.AllocsPerRun(64, func() {
		h.Process(h.Tile(idx % tiles))
		idx++
	})
	h.Close()

	// Warm-up both sides, then paired reps.
	if _, _, err := obsHotLoopRate(searcher, nil); err != nil {
		return err
	}
	if _, _, err := obsHotLoopRate(searcher, reg); err != nil {
		return err
	}
	var plainRates, metricRates, ratios []float64
	for r := 0; r < obsReps; r++ {
		plain, n, err := obsHotLoopRate(searcher, nil)
		if err != nil {
			return err
		}
		instr, _, err := obsHotLoopRate(searcher, reg)
		if err != nil {
			return err
		}
		snap.Tiles = n
		plainRates = append(plainRates, plain)
		metricRates = append(metricRates, instr)
		ratios = append(ratios, instr/plain)
	}
	snap.PlainTilesPerSec = median(plainRates)
	snap.MetricsTilesPerSec = median(metricRates)
	snap.MedianPairedRatio = median(ratios)
	snap.OverheadPct = (1 - snap.MedianPairedRatio) * 100

	// Scrape cross-check: the registry the loops fed must expose the
	// engine series in the Prometheus text format.
	var expo bytes.Buffer
	if _, err := reg.WriteTo(&expo); err != nil {
		return err
	}
	if !bytes.Contains(expo.Bytes(), []byte("trigene_engine_tiles_total")) {
		return fmt.Errorf("scrape of the live registry carries no trigene_engine_tiles_total series")
	}
	for _, line := range bytes.Split(expo.Bytes(), []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			snap.ScrapedSeries++
		}
	}

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(out, "== Observability-overhead audit (%d SNPs x %d samples, median of %d) -> %s ==\n",
		snapSNPs, snapSamples, obsReps, outPath)
	t := report.NewTable("", "hot loop", "tiles/s", "allocs/op")
	t.AddRowf("uninstrumented", snap.PlainTilesPerSec, "-")
	t.AddRowf("live registry", snap.MetricsTilesPerSec, snap.AllocsPerOpWithRegistry)
	if err := render(t); err != nil {
		return err
	}
	fmt.Fprintf(out, "median paired ratio %.4f (overhead %.2f%%), %d series scraped\n",
		snap.MedianPairedRatio, snap.OverheadPct, snap.ScrapedSeries)

	// The audit gates: metrics must be free enough to leave on.
	if snap.AllocsPerOpWithRegistry > 0 {
		return fmt.Errorf("hot path allocates %.2f per tile with a live registry (want 0)",
			snap.AllocsPerOpWithRegistry)
	}
	if snap.MedianPairedRatio < 0.98 {
		return fmt.Errorf("metrics overhead beyond 2%%: median paired ratio %.4f (%.0f vs %.0f tiles/s)",
			snap.MedianPairedRatio, snap.MetricsTilesPerSec, snap.PlainTilesPerSec)
	}
	return nil
}

// screenSnapshot is the committed BENCH_PR9.json shape.
type screenSnapshot struct {
	Schema     string `json:"schema"`
	SNPs       int    `json:"snps"`
	Samples    int    `json:"samples"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Approach   string `json:"approach"`
	Reps       int    `json:"reps"`

	PlantedSNPs    []int `json:"plantedSnps"`
	SurvivorBudget int   `json:"survivorBudget"`
	SeedPairs      int   `json:"seedPairs"`

	ExhaustiveTriples int64 `json:"exhaustiveTriples"`
	ScreenedTriples   int64 `json:"screenedTriples"`
	PairsScanned      int64 `json:"pairsScanned"`

	ExhaustiveMedianMs  float64 `json:"exhaustiveMedianMs"`
	ScreenedMedianMs    float64 `json:"screenedMedianMs"`
	MedianPairedSpeedup float64 `json:"medianPairedSpeedup"`
	Stage1MedianMs      float64 `json:"stage1MedianMs"`
	Stage2MedianMs      float64 `json:"stage2MedianMs"`

	SurvivorRecall        float64 `json:"survivorRecall"`
	BestMatchesExhaustive bool    `json:"bestMatchesExhaustive"`
	AllocsPerOpSubset     float64 `json:"allocsPerOpSubset"`
}

// Screened-search audit shape: a planted third-order signal in a
// dataset big enough that C(M,3) hurts, a survivor budget small enough
// that C(S,3) does not.
const (
	screenAuditSNPs      = 112
	screenAuditSamples   = 2048
	screenAuditSeed      = 29
	screenAuditSurvivors = 24
	screenAuditSeedPairs = 8
	screenAuditReps      = 5
)

// screenAuditPlanted is where the interaction is planted (spread across
// the index range so survivor selection cannot luck into it).
var screenAuditPlanted = []int{11, 47, 83}

// screenExp audits the two-stage screened search end to end. Each rep
// runs the exhaustive V4F search and the screened one (WithScreen,
// survivor budget S, seeded extensions) back to back on the same
// session and contributes one exhaustive/screened wall-time ratio, so
// co-tenant noise hits both sides of a pair alike; the headline
// speedup is the median of the paired ratios. The audit (and CI with
// it) fails if screening is not at least 3x faster, if the stage-1
// scan prunes any planted SNP (survivor recall below 100%), if the
// screened best differs from the exhaustive best (both must be the
// planted triple), or if the index-remapped subset hot loop allocates.
func screenExp(outPath string) error {
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: screenAuditSNPs, Samples: screenAuditSamples, Seed: screenAuditSeed,
		MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{screenAuditPlanted[0], screenAuditPlanted[1], screenAuditPlanted[2]},
			Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
		},
	})
	if err != nil {
		return err
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		return err
	}
	ctx := context.Background()
	snap := screenSnapshot{
		Schema:         "trigene-screen/1",
		SNPs:           screenAuditSNPs,
		Samples:        screenAuditSamples,
		Seed:           screenAuditSeed,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Approach:       engine.V4Fused.String(),
		Reps:           screenAuditReps,
		PlantedSNPs:    screenAuditPlanted,
		SurvivorBudget: screenAuditSurvivors,
		SeedPairs:      screenAuditSeedPairs,
	}

	// Survivor recall: the stage-1 scan the screened runs below will
	// execute, probed standalone so the audit can report exactly which
	// planted SNPs the cut line keeps.
	scores, err := sess.ScreenStage1(ctx, screenAuditSeedPairs)
	if err != nil {
		return err
	}
	survivors, _, err := scores.SelectSurvivors(screenAuditSurvivors)
	if err != nil {
		return err
	}
	inSurvivors := make(map[int]bool, len(survivors))
	for _, c := range survivors {
		inSurvivors[c] = true
	}
	kept := 0
	for _, p := range screenAuditPlanted {
		if inSurvivors[p] {
			kept++
		}
	}
	snap.SurvivorRecall = float64(kept) / float64(len(screenAuditPlanted))

	// Steady-state allocations per tile of the index-remapped subset hot
	// loop — the stage-2 engine the screened search runs.
	searcher, err := engine.New(mx)
	if err != nil {
		return err
	}
	sub, err := searcher.Subset(survivors)
	if err != nil {
		return err
	}
	h, err := sub.NewHotLoop(engine.Options{Approach: engine.V4Fused, TopK: 4})
	if err != nil {
		return err
	}
	tiles := h.Tiles()
	for i := int64(0); i < tiles && i < 32; i++ {
		h.Process(h.Tile(i))
	}
	var idx int64
	snap.AllocsPerOpSubset = testing.AllocsPerRun(64, func() {
		h.Process(h.Tile(idx % tiles))
		idx++
	})
	h.Close()

	screened := []trigene.Option{
		trigene.WithApproach(trigene.V4Fused),
		trigene.WithTopK(4),
		trigene.WithScreen(trigene.ScreenSpec{
			MaxSurvivors: screenAuditSurvivors,
			SeedPairs:    screenAuditSeedPairs,
		}),
	}
	exhaustive := screened[:2]

	// Warm-up both sides, then paired reps.
	if _, err := sess.Search(ctx, exhaustive...); err != nil {
		return err
	}
	if _, err := sess.Search(ctx, screened...); err != nil {
		return err
	}
	var exhMs, scrMs, ratios, stage1Ms, stage2Ms []float64
	snap.BestMatchesExhaustive = true
	for r := 0; r < screenAuditReps; r++ {
		t0 := time.Now()
		exhRep, err := sess.Search(ctx, exhaustive...)
		if err != nil {
			return err
		}
		exhDur := time.Since(t0)
		t1 := time.Now()
		scrRep, err := sess.Search(ctx, screened...)
		if err != nil {
			return err
		}
		scrDur := time.Since(t1)

		exhMs = append(exhMs, float64(exhDur.Microseconds())/1e3)
		scrMs = append(scrMs, float64(scrDur.Microseconds())/1e3)
		ratios = append(ratios, exhDur.Seconds()/scrDur.Seconds())
		if scrRep.Screen == nil {
			return fmt.Errorf("screened report carries no Screen audit record")
		}
		stage1Ms = append(stage1Ms, float64(scrRep.Screen.Stage1Ns)/1e6)
		stage2Ms = append(stage2Ms, float64(scrRep.Screen.Stage2Ns)/1e6)
		snap.ExhaustiveTriples = exhRep.Combinations
		snap.ScreenedTriples = scrRep.Combinations
		snap.PairsScanned = scrRep.Screen.PairsScanned

		// Both sides must agree on the planted triple; a screened search
		// that prunes its way to a different answer is not a speedup.
		for i, p := range screenAuditPlanted {
			if i >= len(exhRep.Best.SNPs) || exhRep.Best.SNPs[i] != p ||
				i >= len(scrRep.Best.SNPs) || scrRep.Best.SNPs[i] != p {
				snap.BestMatchesExhaustive = false
			}
		}
	}
	snap.ExhaustiveMedianMs = median(exhMs)
	snap.ScreenedMedianMs = median(scrMs)
	snap.MedianPairedSpeedup = median(ratios)
	snap.Stage1MedianMs = median(stage1Ms)
	snap.Stage2MedianMs = median(stage2Ms)

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(out, "== Screened-search audit (%d SNPs x %d samples, S=%d, median of %d) -> %s ==\n",
		screenAuditSNPs, screenAuditSamples, screenAuditSurvivors, screenAuditReps, outPath)
	t := report.NewTable("", "search", "triples", "median ms")
	t.AddRowf("exhaustive V4F", snap.ExhaustiveTriples, snap.ExhaustiveMedianMs)
	t.AddRowf("screened V4F", snap.ScreenedTriples, snap.ScreenedMedianMs)
	if err := render(t); err != nil {
		return err
	}
	fmt.Fprintf(out, "median paired speedup %.2fx; %d pairs scanned, stage split %.2f/%.2f ms; recall %.0f%%, %.2f allocs/op\n",
		snap.MedianPairedSpeedup, snap.PairsScanned, snap.Stage1MedianMs, snap.Stage2MedianMs,
		snap.SurvivorRecall*100, snap.AllocsPerOpSubset)

	// The audit gates: the collapse must pay for the pair scan several
	// times over without costing the answer.
	if snap.SurvivorRecall < 1 {
		return fmt.Errorf("stage-1 screen pruned a planted SNP: recall %.2f (survivors %v)",
			snap.SurvivorRecall, survivors)
	}
	if !snap.BestMatchesExhaustive {
		return fmt.Errorf("screened best disagrees with the exhaustive best at the planted triple %v",
			screenAuditPlanted)
	}
	if snap.AllocsPerOpSubset > 0 {
		return fmt.Errorf("subset hot path allocates %.2f per tile (want 0)", snap.AllocsPerOpSubset)
	}
	if snap.MedianPairedSpeedup < 3 {
		return fmt.Errorf("screened search only %.2fx faster than exhaustive (want >= 3x: %.1f vs %.1f ms)",
			snap.MedianPairedSpeedup, snap.ExhaustiveMedianMs, snap.ScreenedMedianMs)
	}
	return nil
}

// permSnapshot is the committed BENCH_PR10.json shape.
type permSnapshot struct {
	Schema     string `json:"schema"`
	SNPs       int    `json:"snps"`
	Samples    int    `json:"samples"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Reps       int    `json:"reps"`

	Candidates   int   `json:"candidates"`
	Orders       []int `json:"orders"`
	Permutations int   `json:"permutations"`
	PermSeed     int64 `json:"permSeed"`

	ScalarMedianMs      float64 `json:"scalarMedianMs"`
	BitPlaneMedianMs    float64 `json:"bitPlaneMedianMs"`
	MedianPairedSpeedup float64 `json:"medianPairedSpeedup"`

	PValuesBitExact      bool    `json:"pValuesBitExact"`
	ClusterWorkers       int     `json:"clusterWorkers"`
	ClusterTiles         int     `json:"clusterTiles"`
	ClusterBitExact      bool    `json:"clusterBitExact"`
	AllocsPerPermutation float64 `json:"allocsPerPermutation"`
}

// Permutation-kernel audit shape: enough samples that the scalar
// per-permutation table fill hurts, enough candidates that the shared
// case plane amortizes, and mixed orders so both the Table path (2–3) and
// the CellScorer path (4+) are on the clock.
const (
	permAuditSNPs    = 96
	permAuditSamples = 4096
	permAuditSeed    = 37
	permAuditPerms   = 200
	permAuditReps    = 5
	permAuditSeedRNG = 101
)

// permAuditCandidates mixes orders 2 through 5; the first triple is the
// planted interaction.
var permAuditCandidates = [][]int{
	{11, 47, 83},
	{0, 1, 2}, {3, 20, 70}, {5, 40, 90}, {12, 48, 84}, {30, 31, 32},
	{7, 9}, {25, 60}, {44, 71},
	{2, 18, 39, 77}, {6, 28, 55, 91},
	{1, 23, 45, 67, 89},
}

// permExp audits the bit-plane permutation kernel end to end. Each rep
// runs the scalar reference path (permtest.K per candidate, the same
// relabelings read one sample at a time) and the batched
// multi-candidate kernel (permtest.KAll) back to back and contributes
// one scalar/bit-plane wall-time ratio; the headline speedup is the
// median of the paired ratios. Around the timing the audit checks the
// determinism contract from three angles: every bit-plane p-value must
// equal its scalar reference exactly, a loopback cluster fanning the
// permutation range over several workers must merge to the same
// numbers, and the steady-state kernel must not allocate per
// permutation (measured as the marginal allocations between a short and
// a long KAllRange call, so per-call setup cancels). The audit (and CI
// with it) fails if the kernel is not at least 5x faster, if any
// p-value diverges, or if the margin allocates.
func permExp(outPath string) error {
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: permAuditSNPs, Samples: permAuditSamples, Seed: permAuditSeed,
		MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{11, 47, 83},
			Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
		},
	})
	if err != nil {
		return err
	}
	orders := make([]int, len(permAuditCandidates))
	for i, c := range permAuditCandidates {
		orders[i] = len(c)
	}
	snap := permSnapshot{
		Schema:       "trigene-perm/2",
		SNPs:         permAuditSNPs,
		Samples:      permAuditSamples,
		Seed:         permAuditSeed,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Reps:         permAuditReps,
		Candidates:   len(permAuditCandidates),
		Orders:       orders,
		Permutations: permAuditPerms,
		PermSeed:     permAuditSeedRNG,
	}
	// Prebuilt genotype planes, as the session API wires them in from
	// the store cache; the scalar path ignores the field.
	bin := dataset.Binarize(mx)
	cfg := permtest.Config{Permutations: permAuditPerms, Seed: permAuditSeedRNG, Planes: bin}

	scalarAll := func() ([]*permtest.Result, error) {
		res := make([]*permtest.Result, len(permAuditCandidates))
		for i, snps := range permAuditCandidates {
			r, err := permtest.K(mx, snps, cfg)
			if err != nil {
				return nil, err
			}
			res[i] = r
		}
		return res, nil
	}

	// Warm-up both sides, then paired reps; the scalar results double as
	// the bit-exactness oracle for every other check below.
	if _, err := scalarAll(); err != nil {
		return err
	}
	if _, err := permtest.KAll(mx, permAuditCandidates, cfg); err != nil {
		return err
	}
	snap.PValuesBitExact = true
	var scalarMs, planeMs, ratios []float64
	var oracle []*permtest.Result
	for r := 0; r < permAuditReps; r++ {
		t0 := time.Now()
		sres, err := scalarAll()
		if err != nil {
			return err
		}
		scalarDur := time.Since(t0)
		t1 := time.Now()
		pres, err := permtest.KAll(mx, permAuditCandidates, cfg)
		if err != nil {
			return err
		}
		planeDur := time.Since(t1)

		scalarMs = append(scalarMs, float64(scalarDur.Microseconds())/1e3)
		planeMs = append(planeMs, float64(planeDur.Microseconds())/1e3)
		ratios = append(ratios, scalarDur.Seconds()/planeDur.Seconds())
		oracle = sres
		for i := range sres {
			if *pres[i] != *sres[i] {
				snap.PValuesBitExact = false
			}
		}
	}
	snap.ScalarMedianMs = median(scalarMs)
	snap.BitPlaneMedianMs = median(planeMs)
	snap.MedianPairedSpeedup = median(ratios)

	// Marginal allocations per permutation: KAllRange pays a fixed
	// per-call setup (combo planes, worker scratch), so the difference
	// between a long and a short range isolates the steady-state loop.
	probe := cfg
	probe.Workers = 1
	allocsAt := func(count int) (float64, error) {
		var perr error
		a := testing.AllocsPerRun(4, func() {
			if _, err := permtest.KAllRange(mx, permAuditCandidates, 0, count, probe); err != nil {
				perr = err
			}
		})
		return a, perr
	}
	aShort, err := allocsAt(64)
	if err != nil {
		return err
	}
	aLong, err := allocsAt(192)
	if err != nil {
		return err
	}
	snap.AllocsPerPermutation = (aLong - aShort) / 128

	// Cluster fan-out: a loopback coordinator splits the permutation
	// range over an odd tile count (uneven ranges) and several workers;
	// the merged Report must reproduce the scalar oracle bit for bit.
	co := cluster.NewCoordinator(cluster.Config{LeaseTTL: 10 * time.Second})
	srv := httptest.NewServer(co)
	defer srv.Close()
	cl := cluster.NewClient(srv.URL)
	cl.Poll = 5 * time.Millisecond
	snap.ClusterWorkers, snap.ClusterTiles = 3, 7
	cl.Tiles = snap.ClusterTiles
	wctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < snap.ClusterWorkers; i++ {
		w := &cluster.Worker{Client: cl, ID: fmt.Sprintf("perm-w%d", i), Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}
	spec := trigene.SearchSpec{Perm: &trigene.PermSpec{
		SNPs: permAuditCandidates, Permutations: permAuditPerms, Seed: permAuditSeedRNG,
	}}
	rep, err := cl.ExecutePerm(context.Background(), mx, spec)
	cancel()
	wg.Wait()
	if err != nil {
		return err
	}
	snap.ClusterBitExact = rep.Perm != nil && len(rep.Perm.Results) == len(oracle)
	if snap.ClusterBitExact {
		for i, pc := range rep.Perm.Results {
			want := oracle[i]
			if pc.Observed != want.Observed || pc.AsGoodOrBetter != want.AsGoodOrBetter || pc.PValue != want.PValue {
				snap.ClusterBitExact = false
			}
		}
	}

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(out, "== Permutation-kernel audit (%d candidates x %d perms, %d SNPs x %d samples, median of %d) -> %s ==\n",
		len(permAuditCandidates), permAuditPerms, permAuditSNPs, permAuditSamples, permAuditReps, outPath)
	t := report.NewTable("", "path", "median ms")
	t.AddRowf("scalar reference", snap.ScalarMedianMs)
	t.AddRowf("bit-plane batched", snap.BitPlaneMedianMs)
	if err := render(t); err != nil {
		return err
	}
	fmt.Fprintf(out, "median paired speedup %.2fx; p-values bit-exact %v, cluster (%d workers, %d tiles) bit-exact %v, %.4f allocs/permutation\n",
		snap.MedianPairedSpeedup, snap.PValuesBitExact,
		snap.ClusterWorkers, snap.ClusterTiles, snap.ClusterBitExact, snap.AllocsPerPermutation)

	// The audit gates: the kernel must be much faster than the scalar
	// path without changing a single p-value or allocating to get there.
	if !snap.PValuesBitExact {
		return fmt.Errorf("bit-plane p-values diverge from the scalar reference")
	}
	if !snap.ClusterBitExact {
		return fmt.Errorf("cluster-merged p-values diverge from the scalar reference")
	}
	if snap.AllocsPerPermutation > 0.01 {
		return fmt.Errorf("steady-state kernel allocates %.4f per permutation (want 0)", snap.AllocsPerPermutation)
	}
	if snap.MedianPairedSpeedup < 5 {
		return fmt.Errorf("bit-plane kernel only %.2fx faster than scalar (want >= 5x: %.1f vs %.1f ms)",
			snap.MedianPairedSpeedup, snap.ScalarMedianMs, snap.BitPlaneMedianMs)
	}
	return nil
}

// maxRate of a non-empty sample.
func maxRate(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
