package engine

import (
	"slices"
	"sync"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/sched"
)

func TestProgressReportingFlatAndBlocked(t *testing.T) {
	mx := randomMatrix(130, 32, 200)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Approach{V2Split, V3Fused, V4Fused} {
		var mu sync.Mutex
		var last, calls, reportedTotal int64
		res, err := s.Run(Options{
			Approach: a,
			Workers:  3,
			Progress: func(done, total int64) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if done > last {
					last = done
				}
				reportedTotal = total
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Fatalf("%v: no progress calls", a)
		}
		want := combin.Triples(32)
		if last != want {
			t.Errorf("%v: final progress %d, want %d", a, last, want)
		}
		if reportedTotal != want {
			t.Errorf("%v: reported total %d, want %d", a, reportedTotal, want)
		}
		if res.Stats.Combinations != want {
			t.Errorf("%v: stats combos %d", a, res.Stats.Combinations)
		}
	}
}

// TestProgressWithShard: a sharded run's progress counts its own slice
// of the space, whose bounds it records as its Space.
func TestProgressWithShard(t *testing.T) {
	mx := randomMatrix(131, 20, 100)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	sh := sched.Shard{Index: 1, Count: 3}
	sub, err := sched.NewSource(0, combin.Triples(20), 1).Shard(sh)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last int64
	res, err := s.Run(Options{
		Approach: V2Split,
		Shard:    &sh,
		Progress: func(done, total int64) {
			mu.Lock()
			defer mu.Unlock()
			if done > last {
				last = done
			}
			if total != sub.Ranks() {
				t.Errorf("total %d, want the shard's %d ranks", total, sub.Ranks())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != sub.Ranks() || res.Stats.Combinations != sub.Ranks() {
		t.Errorf("final progress %d, %d combinations, want %d", last, res.Stats.Combinations, sub.Ranks())
	}
	if res.Space == nil || *res.Space != sub.Bounds() {
		t.Errorf("Space %v, want %v", res.Space, sub.Bounds())
	}
}

// TestSubRangeResultsMatchSubEnumeration: a run restricted to a slice
// of the rank space scores exactly that slice — drained from a shared
// cursor over it, or cut out by Shard — and the slices' union is the
// full search.
func TestSubRangeResultsMatchSubEnumeration(t *testing.T) {
	mx := randomMatrix(132, 15, 120)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Run(Options{Approach: V2Split, TopK: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Split the space in three and merge manually: the union must
	// reproduce the full result.
	total := combin.Triples(15)
	var all []Candidate
	for i, rg := range sched.NewSource(0, total, 1).Partition(3) {
		cur := sched.NewCursor(sched.NewSource(rg.Lo, rg.Hi, 7))
		res, err := s.Run(Options{Approach: V2Split, TopK: 1000, Workers: 3, Tiles: cur})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Combinations != rg.Len() || res.Space != nil {
			t.Errorf("range %+v: combos %d, Space %v", rg, res.Stats.Combinations, res.Space)
		}
		shard, err := s.Run(Options{Approach: V2Split, TopK: 1000, Shard: &sched.Shard{Index: i, Count: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if shard.Space == nil || *shard.Space != rg || !slices.Equal(shard.TopK, res.TopK) {
			t.Errorf("shard %d of 3 covers %v, range %v, and ranks them differently", i, shard.Space, rg)
		}
		all = append(all, res.TopK...)
	}
	if int64(len(all)) != total {
		t.Fatalf("union has %d candidates, want %d", len(all), total)
	}
	seen := map[Triple]float64{}
	for _, c := range all {
		seen[c.triple()] = c.Score
	}
	for _, c := range full.TopK {
		if got, ok := seen[c.triple()]; !ok || got != c.Score {
			t.Errorf("triple %v missing or rescored in union", c.triple())
		}
	}
}

// TestSharedCursorRejectedForBlocked: a shared cursor hands out
// combination ranks, which the block walk — V3F/V4F, the pair search and
// the pair screen — does not claim.
func TestSharedCursorRejectedForBlocked(t *testing.T) {
	mx := randomMatrix(133, 10, 60)
	s, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	cur := sched.NewCursor(sched.NewSource(0, 10, 1))
	for _, a := range []Approach{V3Fused, V4Fused} {
		if _, err := s.Run(Options{Approach: a, Tiles: cur}); err == nil {
			t.Errorf("%v: shared cursor accepted", a)
		}
	}
	if _, err := s.RunPairs(Options{Tiles: cur}); err == nil {
		t.Error("RunPairs accepted a shared cursor")
	}
	if _, err := s.RunPairScreen(Options{Tiles: cur}); err == nil {
		t.Error("RunPairScreen accepted a shared cursor")
	}
	if _, err := s.NewHotLoop(Options{Approach: V2Split, Tiles: cur}); err == nil {
		t.Error("HotLoop accepted a shared cursor")
	}
}
