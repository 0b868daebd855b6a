package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"trigene/internal/join"
)

func TestSourceBoundsAndGrain(t *testing.T) {
	s := NewSource(10, 110, 7)
	if s.Ranks() != 100 || s.Grain() != 7 {
		t.Errorf("ranks=%d grain=%d", s.Ranks(), s.Grain())
	}
	if b := s.Bounds(); b.Lo != 10 || b.Hi != 110 {
		t.Errorf("bounds %+v", b)
	}
	// Inverted and zero-grain inputs are clamped, not accepted.
	if NewSource(5, 2, 0).Ranks() != 0 {
		t.Error("inverted range not clamped")
	}
	if NewSource(0, 10, -3).Grain() != 1 {
		t.Error("grain not clamped to 1")
	}
	if g := s.WithGrain(13).Grain(); g != 13 {
		t.Errorf("WithGrain = %d", g)
	}
}

func TestAutoGrainClamps(t *testing.T) {
	if g := AutoGrain(100, 4); g != 256 {
		t.Errorf("small space grain %d, want 256 floor", g)
	}
	if g := AutoGrain(1<<40, 1); g != 1<<20 {
		t.Errorf("huge space grain %d, want 1<<20 ceiling", g)
	}
	if g := AutoGrain(64*1000*8, 8); g != 1000 {
		t.Errorf("mid grain %d, want 1000", g)
	}
	if g := AutoGrain(1<<20, 0); g < 256 {
		t.Errorf("zero consumers grain %d", g)
	}
}

// TestAutoGrainBoundaries pins the heuristic at the edges of its
// domain: degenerate totals, more consumers than ranks, and totals
// near the int64 ceiling (where a naive consumers*64 multiplier would
// overflow before the clamp could apply).
func TestAutoGrainBoundaries(t *testing.T) {
	cases := []struct {
		name      string
		total     int64
		consumers int
		want      int64
	}{
		{"zero total", 0, 8, MinGrain},
		{"negative total", -100, 8, MinGrain},
		{"total smaller than consumers", 7, 64, MinGrain},
		{"one rank one consumer", 1, 1, MinGrain},
		{"negative consumers clamp to one", 1 << 20, -3, 1 << 20 / 64},
		{"max int64 total", math.MaxInt64, 1, MaxGrain},
		{"max int64 total, max consumers", math.MaxInt64, math.MaxInt32, MaxGrain},
		{"huge total huge pool stays clamped", math.MaxInt64 / 2, 1 << 20, MaxGrain},
	}
	for _, tc := range cases {
		if g := AutoGrain(tc.total, tc.consumers); g != tc.want {
			t.Errorf("%s: AutoGrain(%d, %d) = %d, want %d", tc.name, tc.total, tc.consumers, g, tc.want)
		}
	}
	// Every possible output respects the exported clamps.
	for _, total := range []int64{0, 1, MinGrain, 1 << 30, math.MaxInt64} {
		for _, cons := range []int{0, 1, 7, 1 << 16, math.MaxInt32} {
			g := AutoGrain(total, cons)
			if g < MinGrain || g > MaxGrain {
				t.Fatalf("AutoGrain(%d, %d) = %d escapes [%d, %d]", total, cons, g, MinGrain, MaxGrain)
			}
		}
	}
}

// TestShardCoversSpaceExactly: shards are contiguous, near-equal, and
// their union is the source — the bit-exact merge precondition.
func TestShardCoversSpaceExactly(t *testing.T) {
	for _, tc := range []struct {
		total int64
		count int
	}{{100, 3}, {7, 7}, {5, 9}, {0, 4}, {1 << 20, 13}} {
		src := NewSource(0, tc.total, 64)
		var lo int64
		var sizes []int64
		for i := 0; i < tc.count; i++ {
			sh, err := src.Shard(Shard{Index: i, Count: tc.count})
			if err != nil {
				t.Fatal(err)
			}
			b := sh.Bounds()
			if b.Lo != lo {
				t.Fatalf("total=%d count=%d shard %d starts at %d, want %d", tc.total, tc.count, i, b.Lo, lo)
			}
			lo = b.Hi
			sizes = append(sizes, sh.Ranks())
		}
		if lo != tc.total {
			t.Errorf("total=%d count=%d shards end at %d", tc.total, tc.count, lo)
		}
		for _, s := range sizes {
			if s < tc.total/int64(tc.count) || s > tc.total/int64(tc.count)+1 {
				t.Errorf("total=%d count=%d shard sizes %v not near-equal", tc.total, tc.count, sizes)
			}
		}
	}
	if _, err := NewSource(0, 10, 1).Shard(Shard{Index: 2, Count: 2}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := (Shard{Index: -1, Count: 3}).Validate(); err == nil {
		t.Error("negative shard index accepted")
	}
}

func TestPartitionStatic(t *testing.T) {
	src := NewSource(5, 25, 1)
	parts := src.Partition(3)
	if len(parts) != 3 {
		t.Fatalf("parts %v", parts)
	}
	lo := int64(5)
	for _, p := range parts {
		if p.Lo != lo {
			t.Errorf("gap at %d: %+v", lo, p)
		}
		lo = p.Hi
	}
	if lo != 25 {
		t.Errorf("partition ends at %d", lo)
	}
	// More parts than ranks: empty tiles are dropped.
	if got := NewSource(0, 2, 1).Partition(5); len(got) != 2 {
		t.Errorf("tiny partition %v", got)
	}
	if got := NewSource(0, 0, 1).Partition(4); len(got) != 0 {
		t.Errorf("empty partition %v", got)
	}
}

// TestPartitionCoversExactly: the static partition is contiguous,
// gap-free and near-equal for arbitrary sizes (the property the
// baseline's bit-exact shard merges rest on).
func TestPartitionCoversExactly(t *testing.T) {
	f := func(totalRaw uint32, partsRaw uint8) bool {
		total := int64(totalRaw % 100000)
		parts := int(partsRaw%64) + 1
		rs := NewSource(0, total, 1).Partition(parts)
		var sum, prev int64
		for _, r := range rs {
			if r.Lo != prev || r.Hi <= r.Lo {
				return false
			}
			sum += r.Len()
			prev = r.Hi
		}
		if total == 0 {
			return len(rs) == 0
		}
		minLen, maxLen := rs[0].Len(), rs[0].Len()
		for _, r := range rs {
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
		}
		return sum == total && prev == total && maxLen-minLen <= 1 && len(rs) <= parts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCursorClaimExactCoverage: concurrent consumers with mixed claim
// multipliers cover every rank exactly once.
func TestCursorClaimExactCoverage(t *testing.T) {
	const total = 100_000
	cur := NewCursor(NewSource(0, total, 64))
	var mu sync.Mutex
	covered := make([]bool, total)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		grains := int64(1 + w%3) // mixed per-consumer claim sizes
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tile, ok := cur.Claim(grains)
				if !ok {
					return
				}
				mu.Lock()
				for r := tile.Lo; r < tile.Hi; r++ {
					if covered[r] {
						t.Errorf("rank %d claimed twice", r)
					}
					covered[r] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for r, ok := range covered {
		if !ok {
			t.Fatalf("rank %d never claimed", r)
		}
	}
}

func TestDrainCountsAndProgress(t *testing.T) {
	src := NewSource(0, 10_000, 128)
	cur := NewCursor(src)
	var last atomic.Int64
	cur.OnProgress(src.Ranks(), func(done, total int64) {
		if total != 10_000 {
			t.Errorf("progress total %d", total)
		}
		for {
			prev := last.Load()
			if done <= prev || last.CompareAndSwap(prev, done) {
				break
			}
		}
	})
	var scored atomic.Int64
	err := cur.Drain(context.Background(), 4, func(_ int, tile Tile) (int64, error) {
		scored.Add(tile.Len())
		return tile.Len(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scored.Load() != 10_000 || last.Load() != 10_000 {
		t.Errorf("scored %d, final progress %d", scored.Load(), last.Load())
	}
}

func TestDrainFirstErrorWins(t *testing.T) {
	cur := NewCursor(NewSource(0, 1000, 10))
	boom := errors.New("boom")
	err := cur.Drain(context.Background(), 3, func(_ int, tile Tile) (int64, error) {
		if tile.Lo >= 500 {
			return 0, boom
		}
		return tile.Len(), nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

// TestDrainRaisesConsumerPanic: a consumer's panic is raised again, with
// its value, on the goroutine that called Drain, after every consumer
// has returned, so a recover there sees it.
func TestDrainRaisesConsumerPanic(t *testing.T) {
	cur := NewCursor(NewSource(0, 1000, 10))
	var scored atomic.Int64
	defer func() {
		p, ok := recover().(*join.Panic)
		if !ok || p.Value != "boom" {
			t.Fatalf("Drain raised %#v, want the consumer's panic", p)
		}
		if got := scored.Load(); got != 990 {
			t.Fatalf("the other consumers scored %d of the 990 ranks left", got)
		}
	}()
	cur.Drain(context.Background(), 3, func(_ int, tile Tile) (int64, error) {
		if tile.Lo == 500 {
			panic("boom")
		}
		scored.Add(tile.Len())
		return tile.Len(), nil
	})
	t.Fatal("Drain returned past a consumer's panic")
}

func TestConsumeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cur := NewCursor(NewSource(0, 1000, 10))
	err := cur.Consume(ctx, 1, func(t Tile) (int64, error) { return t.Len(), nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

// TestConsumeCancelWithinOneTile: cancellation mid-drain is observed
// between claims, so a consumer finishes at most the tile it holds and
// claims no further work.
func TestConsumeCancelWithinOneTile(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cur := NewCursor(NewSource(0, 1000, 10)) // 100 tiles
	var tiles int
	err := cur.Consume(ctx, 1, func(tile Tile) (int64, error) {
		tiles++
		cancel() // cancelled while the first tile is in flight
		return tile.Len(), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
	if tiles != 1 {
		t.Errorf("consumer processed %d tiles after cancellation, want 1", tiles)
	}
}

// TestDrainCancelWithinOneTilePerConsumer: each pool consumer finishes
// at most its in-flight tile, so a cancelled search returns within one
// tile per consumer instead of draining the space.
func TestDrainCancelWithinOneTilePerConsumer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const consumers = 4
	cur := NewCursor(NewSource(0, 100000, 10)) // 10000 tiles
	var tiles atomic.Int64
	err := cur.Drain(ctx, consumers, func(w int, tile Tile) (int64, error) {
		tiles.Add(1)
		cancel()
		return tile.Len(), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
	if n := tiles.Load(); n > consumers {
		t.Errorf("pool processed %d tiles after cancellation, want at most %d (one in flight each)", n, consumers)
	}
}

// TestWorkStealingImbalance: a fast and a slow consumer sharing one
// cursor both finish when the space drains — the slow one cannot idle
// the fast one, which is the heterogeneous backend's guarantee.
func TestWorkStealingImbalance(t *testing.T) {
	cur := NewCursor(NewSource(0, 4096, 16))
	var fast, slow int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = cur.Consume(context.Background(), 1, func(t Tile) (int64, error) {
			atomic.AddInt64(&fast, t.Len())
			return t.Len(), nil
		})
	}()
	go func() {
		defer wg.Done()
		_ = cur.Consume(context.Background(), 4, func(t Tile) (int64, error) {
			for i := 0; i < 1000; i++ { // artificially slow consumer
				_ = fmt.Sprintf("%d", i)
			}
			atomic.AddInt64(&slow, t.Len())
			return t.Len(), nil
		})
	}()
	wg.Wait()
	if fast+slow != 4096 {
		t.Errorf("coverage %d + %d != 4096", fast, slow)
	}
	if fast == 0 || slow == 0 {
		t.Logf("one-sided split fast=%d slow=%d (allowed but unusual)", fast, slow)
	}
}

func TestClaimZeroGrainsClamped(t *testing.T) {
	cur := NewCursor(NewSource(0, 10, 4))
	tile, ok := cur.Claim(0)
	if !ok || tile.Len() != 4 {
		t.Errorf("claim(0) = %+v, %v", tile, ok)
	}
}
