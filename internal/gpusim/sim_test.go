package gpusim

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/dataset"
	"trigene/internal/device"
	"trigene/internal/sched"
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

func titan() device.GPU {
	g, err := device.GPUByID("GN1")
	if err != nil {
		panic(err)
	}
	return g
}

func TestTransposedCoalescesBetterThanRowMajor(t *testing.T) {
	mx := randomMatrix(82, 24, 512)
	r := New(titan())
	rm, err := r.Search(encStore(mx), Options{Kernel: K2Split})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.Search(encStore(mx), Options{Kernel: K3Transposed})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Transactions*2 > rm.Stats.Transactions {
		t.Errorf("transposed %d transactions, row-major %d: want at least 2x fewer",
			tr.Stats.Transactions, rm.Stats.Transactions)
	}
	// Same loads and ops: the layouts only change memory behaviour.
	if tr.Stats.Loads != rm.Stats.Loads || tr.Stats.PopcntOps != rm.Stats.PopcntOps {
		t.Error("layout change altered executed operations")
	}
}

func TestSplitReducesOpsAndBytesVsNaive(t *testing.T) {
	mx := randomMatrix(83, 16, 256)
	r := New(titan())
	naive, err := r.Search(encStore(mx), Options{Kernel: K1Naive})
	if err != nil {
		t.Fatal(err)
	}
	split, err := r.Search(encStore(mx), Options{Kernel: K2Split})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~2.1x fewer operations, ~47.5% fewer requested bytes.
	opsRatio := float64(naive.Stats.ALUOps+naive.Stats.PopcntOps) /
		float64(split.Stats.ALUOps+split.Stats.PopcntOps)
	if opsRatio < 1.8 || opsRatio > 2.6 {
		t.Errorf("naive/split ops ratio = %.2f, want ~2.1", opsRatio)
	}
	byteRatio := float64(naive.Stats.RequestedBytes) / float64(split.Stats.RequestedBytes)
	if byteRatio < 1.4 || byteRatio > 2.0 {
		t.Errorf("naive/split requested-byte ratio = %.2f, want ~1.67", byteRatio)
	}
}

func TestModeledPerformanceOrderingV1toV4(t *testing.T) {
	// On the simulated device the paper's headline must hold:
	// V3 (coalesced) is much faster than V2; V4 is at least V3-class;
	// V1 is the slowest of all.
	mx := randomMatrix(84, 32, 1024)
	r := New(titan())
	var secs [5]float64
	for k := K1Naive; k <= K4Tiled; k++ {
		res, err := r.Search(encStore(mx), Options{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		secs[k] = res.Stats.ModelSeconds
		if res.Stats.ModelSeconds <= 0 || res.Stats.ElementsPerSec <= 0 {
			t.Fatalf("%v: timing not populated", k)
		}
	}
	if !(secs[K3Transposed] < secs[K2Split]) {
		t.Errorf("V3 (%.3g s) should beat V2 (%.3g s)", secs[K3Transposed], secs[K2Split])
	}
	if !(secs[K2Split] < secs[K1Naive]) {
		t.Errorf("V2 (%.3g s) should beat V1 (%.3g s)", secs[K2Split], secs[K1Naive])
	}
	if secs[K4Tiled] > secs[K3Transposed]*1.1 {
		t.Errorf("V4 (%.3g s) should be within 10%% of V3 (%.3g s) or better", secs[K4Tiled], secs[K3Transposed])
	}
}

func TestPopcntThroughputDrivesComputeBound(t *testing.T) {
	// With coalesced layouts the kernel is compute bound, so a device
	// with double the POPCNT rate should model ~2x faster per CU.
	mx := randomMatrix(85, 24, 512)
	gn1 := titan() // 32 popcnt/CU
	gn2, err := device.GPUByID("GN2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(gn1).Search(encStore(mx), Options{Kernel: K4Tiled})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(gn2).Search(encStore(mx), Options{Kernel: K4Tiled})
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.Stats.ElementsPerCyclePer.CU / b.Stats.ElementsPerCyclePer.CU
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("GN1/GN2 per-CU per-cycle ratio = %.2f, want ~2 (32 vs 16 popcnt/CU)", ratio)
	}
}

func TestStatsAccounting(t *testing.T) {
	mx := randomMatrix(86, 8, 128)
	r := New(titan())
	res, err := r.Search(encStore(mx), Options{Kernel: K3Transposed})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.RequestedBytes != st.Loads*4 {
		t.Error("requested bytes != loads*4")
	}
	if st.L2Bytes != st.Transactions*32 {
		t.Error("L2 bytes != transactions*segment")
	}
	if st.DRAMBytes != st.L2Misses*cacheLine {
		t.Error("DRAM bytes != misses*line")
	}
	if st.L2Hits+st.L2Misses == 0 {
		t.Error("no cache accesses recorded")
	}
	if st.Transactions > st.Loads {
		t.Error("coalescing cannot create more transactions than loads")
	}
	if st.Cycles < st.ComputeCycles || st.Cycles < st.MemoryCycles {
		t.Error("total cycles must cover both components")
	}
}

func TestOptionValidation(t *testing.T) {
	mx := randomMatrix(87, 6, 64)
	r := New(titan())
	bad := []Options{
		{Kernel: Kernel(9)},
		{TopK: -1},
		{Range: &combin.Range{Lo: 5, Hi: 2}},
		{Range: &combin.Range{Lo: 0, Hi: combin.Triples(6) + 1}},
	}
	for i, o := range bad {
		if _, err := r.Search(encStore(mx), o); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
	if _, err := r.Search(encStore(randomMatrix(88, 2, 10)), Options{}); err == nil {
		t.Error("2-SNP dataset accepted")
	}
	// Degenerate datasets are rejected when the store is built, before
	// any engine sees them.
	oneClass := dataset.NewMatrix(5, 10)
	if _, err := store.New(oneClass); err == nil {
		t.Error("single-class dataset accepted")
	}
}

func TestKernelString(t *testing.T) {
	if K1Naive.String() != "V1" || K4Tiled.String() != "V4" || K5Fused.String() != "V4F" {
		t.Error("kernel names wrong")
	}
	if Kernel(7).String() == "" {
		t.Error("unknown kernel should render")
	}
}

func TestCacheModel(t *testing.T) {
	c := newLRUCache(4096, 2) // 16 sets x 2 ways x 128B
	if !c.access(0) == false && c.access(0) {
		t.Fatal("first access should miss, second hit")
	}
	c.reset()
	if c.hits != 0 || c.misses != 0 {
		t.Error("reset did not clear counters")
	}
	// Fill one set beyond associativity: addresses mapping to set 0.
	c.access(0)
	c.access(16 * 128) // same set, way 2
	c.access(32 * 128) // evicts addr 0
	if c.access(0) {
		t.Error("evicted line reported as hit")
	}
	if got := c.String(); got == "" {
		t.Error("String empty")
	}
}

func TestCacheDegenerateSizes(t *testing.T) {
	c := newLRUCache(64, 0) // smaller than a line, zero ways
	c.access(0)
	c.access(128)
	if c.misses == 0 {
		t.Error("tiny cache should miss")
	}
}

// TestSchedulingUtilization checks Algorithm 2's slot accounting: a
// run schedules its share of the cube at the modeled block, and the
// rule gives ~1/6 utilization when one block spans the space.
func TestSchedulingUtilization(t *testing.T) {
	mx := randomMatrix(90, 40, 128)
	res, err := New(titan()).Search(encStore(mx), Options{Kernel: K4Tiled})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.ActiveThreads != st.Combinations {
		t.Errorf("active threads %d != combinations %d", st.ActiveThreads, st.Combinations)
	}
	if want := scheduledThreads(40, st.Combinations, schedBlock); st.ScheduledThreads != want {
		t.Errorf("scheduled threads %d, want %d", st.ScheduledThreads, want)
	}
	if want := float64(st.ActiveThreads) / float64(st.ScheduledThreads); st.Utilization != want {
		t.Errorf("utilization %g, want active/scheduled %g", st.Utilization, want)
	}

	// With the block equal to M there is a single block triple and the
	// cube holds M^3 slots: utilization = C(M,3)/M^3 ~ 1/6.
	total := combin.Triples(40)
	coarse := scheduledThreads(40, total, 40)
	if coarse != 40*40*40 {
		t.Errorf("scheduled threads %d, want 64000", coarse)
	}
	if u := float64(total) / float64(coarse); u < 0.12 || u > 0.20 {
		t.Errorf("utilization %.3f, want ~1/6", u)
	}
	// Smaller scheduling blocks waste fewer guard slots, and a shard
	// schedules its share of the cube.
	if fine := scheduledThreads(40, total, 8); fine >= coarse {
		t.Errorf("block 8 schedules %d slots, block 40 %d: want fewer", fine, coarse)
	}
	if half := scheduledThreads(40, total/2, 40); half != coarse/2 {
		t.Errorf("half the ranks schedule %d slots, want %d", half, coarse/2)
	}
}

// TestCancelObservedWithinOneTile: cancellation mid-tile is observed
// between warp batches, so even a single tile covering the whole space
// (a device claim on a shared cursor can be that large) returns
// promptly and never reports the tile finished.
func TestCancelObservedWithinOneTile(t *testing.T) {
	mx := randomMatrix(7, 40, 256)
	total := combin.Triples(40)
	cur := sched.NewCursor(sched.NewSource(0, total, total)) // one tile = the space
	var finished atomic.Int64
	cur.OnProgress(total, func(done, _ int64) { finished.Store(done) })

	ctx, cancel := context.WithCancel(context.Background())
	_, err := New(titan()).Search(encStore(mx), Options{
		Tiles:   cur,
		Context: ctx,
		// Started fires right after the first (whole-space) claim, so
		// the cancellation lands strictly mid-tile.
		Started: cancel,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if finished.Load() != 0 {
		t.Errorf("cancelled search finished %d items of its tile", finished.Load())
	}
}

// TestCancelBeforeStart: an already-cancelled context stops the search
// before any tile is claimed.
func TestCancelBeforeStart(t *testing.T) {
	mx := randomMatrix(8, 16, 128)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(titan()).Search(encStore(mx), Options{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
