// benchsuite regenerates every table and figure of the paper's
// evaluation section:
//
//	benchsuite -exp fig2a    # CARM characterization, Ice Lake SP CPU
//	benchsuite -exp fig2b    # CARM characterization, Iris Xe MAX GPU (simulated)
//	benchsuite -exp fig3     # CPU study across Table I devices (modeled)
//	benchsuite -exp fig4     # GPU study across Table II devices (modeled)
//	benchsuite -exp table3   # state-of-the-art comparison (modeled + host-measured)
//	benchsuite -exp overall  # Section V-D whole-device and efficiency comparison
//	benchsuite -exp host     # measured baseline vs V3F and V4F on this machine
//	benchsuite -exp all      # every experiment above, in this order
//
// Cross-device rows are analytical-model projections (this is a
// pure-Go, single-host reproduction — see DESIGN.md); host rows are
// real measurements of this repository's implementations. Performance
// tracking and regression gates live in bench/ (see BENCHMARK.json),
// not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"trigene"
	"trigene/internal/carm"
	"trigene/internal/device"
	"trigene/internal/gpusim"
	"trigene/internal/perfmodel"
	"trigene/internal/report"
	"trigene/internal/store"
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
	exp := fs.String("exp", "all", "experiment: fig2a, fig2b, fig3, fig4, table3, overall, host or all")
	hostSNPs := fs.Int("host-snps", 160, "SNP count for the host-measured experiments")
	hostSamples := fs.Int("host-samples", 4096, "sample count for the host-measured experiments")
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
		"host":    func() error { return host(*hostSNPs, *hostSamples) },
	}
	order := []string{"fig2a", "fig2b", "fig3", "fig4", "table3", "overall", "host"}
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

	fmt.Fprintln(out, "host-measured cross-check: MPI3SNP-style baseline vs this work's default CPU search")
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
	ht.AddRowf("this work "+ours.Approach, ours.ElementsPerSec/1e9,
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
	t := report.NewTable("", "approach", "duration", "G elem/s", "speedup vs baseline")
	base, err := sess.Search(ctx, trigene.WithBackend(trigene.Baseline()))
	if err != nil {
		return err
	}
	t.AddRowf("MPI3SNP-style baseline", base.Duration.Round(time.Millisecond).String(),
		base.ElementsPerSec/1e9, report.Speedup(1))
	for _, a := range []trigene.Approach{trigene.V3Fused, trigene.V4Fused} {
		rep, err := sess.Search(ctx, trigene.WithApproach(a))
		if err != nil {
			return err
		}
		t.AddRowf(rep.Approach, rep.Duration.Round(time.Millisecond).String(),
			rep.ElementsPerSec/1e9, report.Speedup(rep.ElementsPerSec/base.ElementsPerSec))
	}
	return render(t)
}
