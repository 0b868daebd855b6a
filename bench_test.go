// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus host-measured calibration runs and ablation
// benches for the design choices DESIGN.md calls out.
//
// Two kinds of benchmarks coexist here:
//
//   - *_Model benches evaluate the analytical device models that
//     project the kernels onto the paper's 13 devices (Figures 3-4,
//     Table III, Section V-D). They are cheap; their value is the
//     regenerated figure content, printed with -v via b.Logf on the
//     first iteration.
//   - *_Host and GPUSim benches measure this repository's real
//     implementations on the build machine: the engine approaches, the
//     MPI3SNP-style baseline, and the functional GPU simulator. The
//     custom "Gelem/s" metric is the paper's throughput unit
//     (combinations x samples per second, in billions).
//
// Regenerate everything textually with: go run ./cmd/benchsuite
package trigene_test

import (
	"fmt"
	"sync"
	"testing"

	"trigene"
	"trigene/internal/carm"
	"trigene/internal/device"
	"trigene/internal/engine"
	"trigene/internal/gpusim"
	"trigene/internal/hetero"
	"trigene/internal/mpi3snp"
	"trigene/internal/perfmodel"
	"trigene/internal/permtest"
	"trigene/internal/report"
)

// benchMatrix caches generated datasets across benchmarks.
var benchMatrix = struct {
	sync.Mutex
	cache map[string]*trigene.Matrix
}{cache: map[string]*trigene.Matrix{}}

func dataset(b *testing.B, snps, samples int) *trigene.Matrix {
	b.Helper()
	key := fmt.Sprintf("%dx%d", snps, samples)
	benchMatrix.Lock()
	defer benchMatrix.Unlock()
	if mx, ok := benchMatrix.cache[key]; ok {
		return mx
	}
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: snps, Samples: samples, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	benchMatrix.cache[key] = mx
	return mx
}

func mustCPU(b *testing.B, id string) device.CPU {
	b.Helper()
	c, err := device.CPUByID(id)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func mustGPU(b *testing.B, id string) device.GPU {
	b.Helper()
	g, err := device.GPUByID(id)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// reportEngine runs one engine configuration per iteration and reports
// the paper's throughput metric.
func reportEngine(b *testing.B, mx *trigene.Matrix, opts engine.Options) {
	s, err := engine.New(mx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var elements float64
	for i := 0; i < b.N; i++ {
		res, err := s.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		elements += res.Stats.Elements
	}
	b.ReportMetric(elements/b.Elapsed().Seconds()/1e9, "Gelem/s")
}

// ---------------------------------------------------------------------------
// Figure 2a: CARM characterization of the CPU approaches on Ice Lake SP.

func BenchmarkFig2a_CARM_CPU(b *testing.B) {
	ci3 := mustCPU(b, "CI3")
	model := carm.CPUModel(ci3, true)
	var once sync.Once
	for i := 0; i < b.N; i++ {
		points, err := carm.CPUPoints(ci3, true, 2048, 16384)
		if err != nil {
			b.Fatal(err)
		}
		once.Do(func() {
			t := report.NewTable("Figure 2a points (modeled)", "point", "AI", "GINTOPS", "ceiling")
			for _, p := range points {
				t.AddRowf(p.Name, p.AI, p.GIntops, model.Attainable(p.AI))
			}
			b.Logf("\n%s", t.String())
		})
	}
}

// Figure 2a/3 host calibration: the CPU pipelines the engine runs,
// measured on the build machine (the shape the paper measures on each
// CPU): V2, and the lanes pass on the portable and the tuned bodies.

func BenchmarkFig2a_HostApproaches(b *testing.B) {
	mx := dataset(b, 96, 4096)
	for _, a := range []engine.Approach{engine.V2Split, engine.V3Fused, engine.V4Fused} {
		b.Run(a.String(), func(b *testing.B) {
			reportEngine(b, mx, engine.Options{Approach: a})
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 2b: CARM characterization of the GPU kernels on Iris Xe MAX,
// obtained by executing them in the simulator.

func BenchmarkFig2b_CARM_GPU(b *testing.B) {
	gi2 := mustGPU(b, "GI2")
	mx := dataset(b, 48, 2048)
	runner := gpusim.New(gi2)
	for k := gpusim.K1Naive; k <= gpusim.K4Tiled; k++ {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var modelRate float64
			var logged bool
			for i := 0; i < b.N; i++ {
				res, err := runner.Search(encStore(mx), gpusim.Options{Kernel: k})
				if err != nil {
					b.Fatal(err)
				}
				modelRate = res.Stats.ElementsPerSec
				if !logged {
					logged = true
					p := carm.PointFromGPUStats(k.String(), res.Stats)
					b.Logf("point %s: AI=%.3f intop/B, %.1f GINTOPS, %.1f G elem/s (modeled)",
						p.Name, p.AI, p.GIntops, res.Stats.ElementsPerSec/1e9)
				}
			}
			b.ReportMetric(modelRate/1e9, "Gelem/s(model)")
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 3: CPU study across the Table I devices (modeled).

func BenchmarkFig3_CPUStudy(b *testing.B) {
	cpus := device.AllCPUs()
	var once sync.Once
	for i := 0; i < b.N; i++ {
		var sink float64
		for _, c := range cpus {
			for _, m := range []int{2048, 4096, 8192} {
				sink += perfmodel.CPUPerCoreGElemPerSec(c, true, m, 16384)
				sink += perfmodel.CPUPerCyclePerCore(c, false, m, 16384)
				sink += perfmodel.CPUPerCyclePerCoreVec(c, c.HasAVX512, m, 16384)
			}
		}
		once.Do(func() {
			t := report.NewTable("Figure 3a (modeled): G elem/s/core", "device", "2048", "4096", "8192")
			for _, c := range cpus {
				t.AddRowf(c.ID,
					perfmodel.CPUPerCoreGElemPerSec(c, true, 2048, 16384),
					perfmodel.CPUPerCoreGElemPerSec(c, true, 4096, 16384),
					perfmodel.CPUPerCoreGElemPerSec(c, true, 8192, 16384))
			}
			b.Logf("sink=%g\n%s", sink, t.String())
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 4: GPU study across the Table II devices (modeled), with a
// measured simulator run for the per-CU ordering spot check.

func BenchmarkFig4_GPUStudy(b *testing.B) {
	gpus := device.AllGPUs()
	var once sync.Once
	for i := 0; i < b.N; i++ {
		var sink float64
		for _, g := range gpus {
			for _, m := range []int{2048, 4096, 8192} {
				sink += perfmodel.GPUPerCUGElemPerSec(g, m, 16384)
				sink += perfmodel.GPUPerCyclePerCU(g, m, 16384)
				sink += perfmodel.GPUPerCyclePerStreamCore(g, m, 16384)
			}
		}
		once.Do(func() {
			t := report.NewTable("Figure 4a (modeled): G elem/s/CU", "device", "2048", "4096", "8192")
			for _, g := range gpus {
				t.AddRowf(g.ID,
					perfmodel.GPUPerCUGElemPerSec(g, 2048, 16384),
					perfmodel.GPUPerCUGElemPerSec(g, 4096, 16384),
					perfmodel.GPUPerCUGElemPerSec(g, 8192, 16384))
			}
			b.Logf("sink=%g\n%s", sink, t.String())
		})
	}
}

func BenchmarkFig4_GPUSimPerDevice(b *testing.B) {
	mx := dataset(b, 48, 2048)
	for _, id := range []string{"GN1", "GN2", "GA2", "GI2"} {
		id := id
		b.Run(id, func(b *testing.B) {
			runner := gpusim.New(mustGPU(b, id))
			var perCU float64
			for i := 0; i < b.N; i++ {
				res, err := runner.Search(encStore(mx), gpusim.Options{Kernel: gpusim.K4Tiled})
				if err != nil {
					b.Fatal(err)
				}
				perCU = res.Stats.ElementsPerCyclePer.CU
			}
			b.ReportMetric(perCU, "elem/cyc/CU(model)")
		})
	}
}

// ---------------------------------------------------------------------------
// Table III: modeled projection plus the host-measured baseline-vs-V4
// cross check.

func BenchmarkTable3_Model(b *testing.B) {
	var once sync.Once
	for i := 0; i < b.N; i++ {
		rows, err := perfmodel.Table3()
		if err != nil {
			b.Fatal(err)
		}
		once.Do(func() {
			t := report.NewTable("Table III (modeled)", "work", "dataset", "device", "speedup", "paper")
			for _, r := range rows {
				t.AddRowf(r.Work, fmt.Sprintf("%dx%d", r.SNPs, r.Samples), r.DeviceID,
					report.Speedup(r.Speedup), report.Speedup(r.PaperSpeedup))
			}
			b.Logf("\n%s", t.String())
		})
	}
}

func BenchmarkTable3_HostBaseline(b *testing.B) {
	mx := dataset(b, 96, 4096)
	b.Run("MPI3SNP-style", func(b *testing.B) {
		var elements float64
		for i := 0; i < b.N; i++ {
			res, err := mpi3snp.Search(encStore(mx), mpi3snp.Options{})
			if err != nil {
				b.Fatal(err)
			}
			elements += res.Stats.Elements
		}
		b.ReportMetric(elements/b.Elapsed().Seconds()/1e9, "Gelem/s")
	})
	b.Run("ThisWorkV4F", func(b *testing.B) {
		reportEngine(b, mx, engine.Options{Approach: engine.V4Fused})
	})
}

// ---------------------------------------------------------------------------
// Section V-D: whole-device and energy-efficiency comparison (modeled).

func BenchmarkOverall_DeviceComparison(b *testing.B) {
	var once sync.Once
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Overall(8192, 16384)
		once.Do(func() {
			t := report.NewTable("Section V-D (modeled)", "device", "G elem/s", "G elem/J")
			for _, r := range rows {
				t.AddRowf(r.DeviceID, r.GElems, r.GElemsPerJoule)
			}
			b.Logf("\n%s", t.String())
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md section 6): measured on the host.

// Blocking ablation: V2 (no tiling) vs V3F (tiled lanes pass, portable
// bodies) on a long-sample dataset where the working set exceeds L2.
func BenchmarkAblation_Blocking(b *testing.B) {
	mx := dataset(b, 64, 16384)
	for _, a := range []engine.Approach{engine.V2Split, engine.V3Fused} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			reportEngine(b, mx, engine.Options{Approach: a})
		})
	}
}

// Tile-size ablation: the lanes pass's word tile around the L1-derived
// default of 120 words (its block is fixed at one lane group).
func BenchmarkAblation_TileSize(b *testing.B) {
	mx := dataset(b, 96, 4096)
	for _, bw := range []int{8, 32, 64, 120, 256} {
		bw := bw
		b.Run(fmt.Sprintf("BW%d", bw), func(b *testing.B) {
			reportEngine(b, mx, engine.Options{BlockWords: bw})
		})
	}
}

// GPU layout ablation: the three split-data layouts on the simulator;
// the metric is coalesced transactions per issued load (lower is
// better; 1/8 is perfect 32-byte coalescing of 4-byte loads).
func BenchmarkAblation_GPULayout(b *testing.B) {
	mx := dataset(b, 48, 2048)
	runner := gpusim.New(mustGPU(b, "GN2"))
	for _, k := range []gpusim.Kernel{gpusim.K2Split, gpusim.K3Transposed, gpusim.K4Tiled} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var txPerLoad float64
			for i := 0; i < b.N; i++ {
				res, err := runner.Search(encStore(mx), gpusim.Options{Kernel: k})
				if err != nil {
					b.Fatal(err)
				}
				txPerLoad = float64(res.Stats.Transactions) / float64(res.Stats.Loads)
			}
			b.ReportMetric(txPerLoad, "txn/load")
		})
	}
}

// Objective ablation: scoring cost of the three objectives on the same
// search.
func BenchmarkAblation_Objectives(b *testing.B) {
	mx := dataset(b, 64, 2048)
	for _, name := range []string{"k2", "mi", "gini"} {
		name := name
		b.Run(name, func(b *testing.B) {
			obj, err := trigene.NewObjective(name, mx.Samples())
			if err != nil {
				b.Fatal(err)
			}
			reportEngine(b, mx, engine.Options{Objective: obj})
		})
	}
}

// ---------------------------------------------------------------------------
// Extension benches: 2-way search, heterogeneous split, permutation
// testing, and the MPI3SNP-parity pairwise comparison.

func BenchmarkExt_PairSearch(b *testing.B) {
	mx := dataset(b, 512, 4096)
	s, err := engine.New(mx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var elements float64
	for i := 0; i < b.N; i++ {
		res, err := s.RunPairs(engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		elements += res.Stats.Elements
	}
	b.ReportMetric(elements/b.Elapsed().Seconds()/1e9, "Gelem/s")
}

func BenchmarkExt_Heterogeneous(b *testing.B) {
	mx := dataset(b, 48, 2048)
	for i := 0; i < b.N; i++ {
		if _, err := hetero.Search(encStore(mx), hetero.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_PermutationTest(b *testing.B) {
	mx := dataset(b, 32, 2048)
	for i := 0; i < b.N; i++ {
		if _, err := permtest.Triple(mx, 3, 9, 21, permtest.Config{Permutations: 200, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(200*float64(b.N)/b.Elapsed().Seconds(), "perm/s")
}

func BenchmarkExt_KWaySearch(b *testing.B) {
	mx := dataset(b, 40, 2048)
	s, err := engine.New(mx)
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []int{2, 3, 4} {
		order := order
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			var elements float64
			for i := 0; i < b.N; i++ {
				res, err := s.RunK(order, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				elements += res.Stats.Elements
			}
			b.ReportMetric(elements/b.Elapsed().Seconds()/1e9, "Gelem/s")
		})
	}
}
