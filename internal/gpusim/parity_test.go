package gpusim_test

// CPU-parity tests compare the simulator against trigene/internal/engine
// through the package's exported surface only.

import (
	"math/rand"
	"testing"

	"trigene/internal/dataset"
	"trigene/internal/device"
	"trigene/internal/engine"
	"trigene/internal/gpusim"
	"trigene/internal/store"
)

func randomMatrix(seed int64, m, n int) *dataset.Matrix {
	r := rand.New(rand.NewSource(seed))
	mx := dataset.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := mx.Row(i)
		for j := range row {
			row[j] = uint8(r.Intn(3))
		}
	}
	for j := 0; j < n; j++ {
		mx.SetPhen(j, uint8(j%2))
	}
	return mx
}

func encStore(mx *dataset.Matrix) *store.Store {
	st, err := store.New(mx)
	if err != nil {
		panic(err)
	}
	return st
}

func titan() device.GPU {
	g, err := device.GPUByID("GN1")
	if err != nil {
		panic(err)
	}
	return g
}

func TestAllKernelsMatchCPUEngine(t *testing.T) {
	mx := randomMatrix(80, 20, 300)
	cpu, err := engine.Search(mx, engine.Options{Approach: engine.V2Split})
	if err != nil {
		t.Fatal(err)
	}
	r := gpusim.New(titan())
	for k := gpusim.K1Naive; k <= gpusim.K5Fused; k++ {
		res, err := r.Search(encStore(mx), gpusim.Options{Kernel: k})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Best != cpu.Best {
			t.Errorf("%v: best %v = %.6f, CPU %v = %.6f",
				k, res.Best.SNPs[:3], res.Best.Score, cpu.Best.SNPs[:3], cpu.Best.Score)
		}
	}
}

func TestOddSampleCountsMatchCPU(t *testing.T) {
	// Non-multiple-of-32 class sizes exercise the 32-bit pad correction.
	for _, n := range []int{33, 97, 131} {
		mx := randomMatrix(81, 10, n)
		cpu, err := engine.Search(mx, engine.Options{Approach: engine.V2Split})
		if err != nil {
			t.Fatal(err)
		}
		r := gpusim.New(titan())
		for _, k := range []gpusim.Kernel{gpusim.K2Split, gpusim.K3Transposed, gpusim.K4Tiled, gpusim.K5Fused} {
			res, err := r.Search(encStore(mx), gpusim.Options{Kernel: k})
			if err != nil {
				t.Fatal(err)
			}
			if res.Best.Score != cpu.Best.Score {
				t.Errorf("n=%d %v: score %.9f != CPU %.9f", n, k, res.Best.Score, cpu.Best.Score)
			}
		}
	}
}

func TestWarp64DeviceMatchesCPU(t *testing.T) {
	// AMD wavefront width 64 exercises the wide-warp path.
	ga2, err := device.GPUByID("GA2")
	if err != nil {
		t.Fatal(err)
	}
	mx := randomMatrix(89, 14, 200)
	cpu, err := engine.Search(mx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []gpusim.Kernel{gpusim.K4Tiled, gpusim.K5Fused} {
		res, err := gpusim.New(ga2).Search(encStore(mx), gpusim.Options{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Score != cpu.Best.Score {
			t.Errorf("GA2 %v score %.9f != CPU %.9f", k, res.Best.Score, cpu.Best.Score)
		}
	}
}

func TestFusedSharesPairLoadsAcrossGroup(t *testing.T) {
	// The fused kernel loads y/z planes once per (j,k) group and builds
	// the nine pair-AND planes at the leader; the tiled kernel reloads
	// per thread. Fewer executed loads is the point of the fusion.
	mx := randomMatrix(90, 24, 512)
	r := gpusim.New(titan())
	tiled, err := r.Search(encStore(mx), gpusim.Options{Kernel: gpusim.K4Tiled})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := r.Search(encStore(mx), gpusim.Options{Kernel: gpusim.K5Fused})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Stats.Loads >= tiled.Stats.Loads {
		t.Errorf("fused executed %d loads, tiled %d: want fewer", fused.Stats.Loads, tiled.Stats.Loads)
	}
	if fused.Best.Score != tiled.Best.Score {
		t.Errorf("fused score %.9f != tiled %.9f", fused.Best.Score, tiled.Best.Score)
	}
}

// TestSingleCaseClassMatchesCPU: one case against every other sample a
// control puts the case class in a single padded word.
func TestSingleCaseClassMatchesCPU(t *testing.T) {
	mx := randomMatrix(150, 10, 200)
	for j := 0; j < 200; j++ {
		mx.SetPhen(j, dataset.Control)
	}
	mx.SetPhen(137, dataset.Case)
	cpu, err := engine.Search(mx, engine.Options{Approach: engine.V2Split})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpusim.New(titan()).Search(encStore(mx), gpusim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != cpu.Best {
		t.Errorf("gpusim best %+v != engine %+v", res.Best, cpu.Best)
	}
}
