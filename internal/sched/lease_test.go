package sched

import (
	"testing"
	"time"
)

func TestLeaseTableExactlyOnce(t *testing.T) {
	now := time.Unix(0, 0)
	ttl := time.Second
	lt := NewLeaseTable(3)

	// Drain the table: three distinct tiles, then nothing.
	var leases []TileLease
	for i := 0; i < 3; i++ {
		l, ok := lt.Acquire(now, ttl)
		if !ok {
			t.Fatalf("acquire %d failed", i)
		}
		if l.Tile != i || l.Attempt != 1 {
			t.Fatalf("acquire %d = %+v", i, l)
		}
		leases = append(leases, l)
	}
	if _, ok := lt.Acquire(now, ttl); ok {
		t.Fatal("acquired a fourth lease from a 3-tile table")
	}
	if got := lt.Outstanding(now); got != 3 {
		t.Fatalf("outstanding = %d, want 3", got)
	}

	// First completion accepted, second is a duplicate.
	if st := lt.Complete(leases[0].Tile, leases[0].Seq); st != CompleteAccepted {
		t.Fatalf("first complete = %v", st)
	}
	if st := lt.Complete(leases[0].Tile, leases[0].Seq); st != CompleteDuplicate {
		t.Fatalf("second complete = %v", st)
	}
	if lt.Done() != 1 {
		t.Fatalf("done = %d, want 1", lt.Done())
	}

	// Unknown coordinates are classified, not counted.
	if st := lt.Complete(99, 1); st != CompleteUnknown {
		t.Fatalf("out-of-range complete = %v", st)
	}
	if st := lt.Complete(leases[1].Tile, 9999); st != CompleteUnknown {
		t.Fatalf("never-granted seq complete = %v", st)
	}
}

func TestLeaseTableExpiryReissue(t *testing.T) {
	now := time.Unix(0, 0)
	ttl := time.Second
	lt := NewLeaseTable(1)

	first, ok := lt.Acquire(now, ttl)
	if !ok {
		t.Fatal("acquire failed")
	}
	// Before the deadline the tile is covered.
	if _, ok := lt.Acquire(now.Add(ttl-1), ttl); ok {
		t.Fatal("re-acquired an unexpired lease")
	}
	// At the deadline it is re-issued with a new seq and attempt.
	second, ok := lt.Acquire(now.Add(ttl), ttl)
	if !ok {
		t.Fatal("expired tile not re-issued")
	}
	if second.Tile != first.Tile || second.Seq == first.Seq || second.Attempt != 2 {
		t.Fatalf("re-issue = %+v (first %+v)", second, first)
	}
	if lt.Attempts(0) != 2 {
		t.Fatalf("attempts = %d, want 2", lt.Attempts(0))
	}

	// The superseded holder's completion is stale; the new holder's
	// counts; a later completion by anyone is a duplicate.
	if st := lt.Complete(first.Tile, first.Seq); st != CompleteStale {
		t.Fatalf("superseded complete = %v", st)
	}
	if st := lt.Complete(second.Tile, second.Seq); st != CompleteAccepted {
		t.Fatalf("current complete = %v", st)
	}
	if st := lt.Complete(first.Tile, first.Seq); st != CompleteDuplicate {
		t.Fatalf("late complete = %v", st)
	}
	if lt.Done() != 1 {
		t.Fatalf("done = %d, want 1", lt.Done())
	}
}

func TestLeaseTableExpiredHolderStillCompletes(t *testing.T) {
	// A lease that expired but was NOT re-issued still completes: only
	// an actual re-issue forces recomputation.
	now := time.Unix(0, 0)
	lt := NewLeaseTable(1)
	l, _ := lt.Acquire(now, time.Second)
	if st := lt.Complete(l.Tile, l.Seq); st != CompleteAccepted {
		t.Fatalf("expired-but-current complete = %v", st)
	}
}

func TestLeaseTableRenew(t *testing.T) {
	now := time.Unix(0, 0)
	ttl := time.Second
	lt := NewLeaseTable(1)
	l, _ := lt.Acquire(now, ttl)

	// Renewal pushes the deadline forward, keeping the tile covered
	// past its original expiry.
	if !lt.Renew(l.Tile, l.Seq, now.Add(ttl/2), ttl) {
		t.Fatal("renew of live lease failed")
	}
	if _, ok := lt.Acquire(now.Add(ttl), ttl); ok {
		t.Fatal("renewed lease treated as expired")
	}

	// After expiry and re-issue, the old holder's renewal fails.
	re, ok := lt.Acquire(now.Add(ttl/2+ttl), ttl)
	if !ok {
		t.Fatal("renewed-then-expired tile not re-issued")
	}
	if lt.Renew(l.Tile, l.Seq, now, ttl) {
		t.Fatal("renew of superseded lease succeeded")
	}
	// Completion ends renewability.
	if st := lt.Complete(re.Tile, re.Seq); st != CompleteAccepted {
		t.Fatalf("complete = %v", st)
	}
	if lt.Renew(re.Tile, re.Seq, now, ttl) {
		t.Fatal("renew of completed tile succeeded")
	}
}

func TestLeaseTableEmpty(t *testing.T) {
	lt := NewLeaseTable(0)
	if lt.Tiles() != 0 || lt.Done() != 0 {
		t.Fatalf("empty table: tiles=%d done=%d", lt.Tiles(), lt.Done())
	}
	if _, ok := lt.Acquire(time.Now(), time.Second); ok {
		t.Fatal("acquired from an empty table")
	}
}

// TestLeaseTableRelease: a released live lease re-issues immediately,
// without the surrendered attempt counting toward a cap, while stale
// or completed coordinates refuse to release.
func TestLeaseTableRelease(t *testing.T) {
	now := time.Unix(0, 0)
	ttl := time.Minute
	lt := NewLeaseTable(2)

	l0, _ := lt.Acquire(now, ttl)
	if !lt.Release(l0.Tile, l0.Seq) {
		t.Fatal("live lease refused to release")
	}
	if lt.Release(l0.Tile, l0.Seq) {
		t.Fatal("released lease released twice")
	}
	// Immediate re-issue, well inside the original TTL, and the clean
	// hand-back did not count as an attempt.
	re, ok := lt.Acquire(now.Add(time.Second), ttl)
	if !ok || re.Tile != l0.Tile {
		t.Fatalf("re-acquire after release = %+v ok=%v", re, ok)
	}
	if re.Attempt != 1 {
		t.Fatalf("re-acquire attempt = %d, want 1 (release un-counts)", re.Attempt)
	}
	if re.Seq == l0.Seq {
		t.Fatal("re-issue reused the released seq")
	}
	// The released holder cannot complete the re-issued tile.
	if st := lt.Complete(l0.Tile, l0.Seq); st == CompleteAccepted {
		t.Fatalf("released holder's completion = %v", st)
	}
	// A completed tile refuses to release.
	if st := lt.Complete(re.Tile, re.Seq); st != CompleteAccepted {
		t.Fatalf("complete = %v", st)
	}
	if lt.Release(re.Tile, re.Seq) {
		t.Fatal("completed tile released")
	}
}

// TestLeaseTableLeased: Leased lists exactly the unexpired leases.
func TestLeaseTableLeased(t *testing.T) {
	now := time.Unix(0, 0)
	lt := NewLeaseTable(3)
	l0, _ := lt.Acquire(now, time.Second)
	lt.Acquire(now, time.Hour) // tile 1, long-lived
	lt.Complete(l0.Tile, l0.Seq)

	got := lt.Leased(now.Add(2 * time.Second))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("leased = %v, want [1]", got)
	}
}

// TestLeaseTableExportImport: the Export/Import round-trip reproduces
// grants, completions, deadlines and the seq counter, so a restored
// table continues exactly where the exported one stopped.
func TestLeaseTableExportImport(t *testing.T) {
	now := time.Unix(1000, 0)
	ttl := time.Minute
	lt := NewLeaseTable(4)

	l0, _ := lt.Acquire(now, ttl) // tile 0: will complete
	l1, _ := lt.Acquire(now, ttl) // tile 1: stays leased
	lt.Acquire(now, ttl)          // tile 2: expires, re-issues once
	lt.Complete(l0.Tile, l0.Seq)
	lt.Renew(l1.Tile, l1.Seq, now.Add(2*ttl), ttl) // tile 1 covered past the re-issue below
	l2b, _ := lt.Acquire(now.Add(2*ttl), ttl)      // re-issue of tile 2
	if l2b.Tile != 2 || l2b.Attempt != 2 {
		t.Fatalf("re-issue = %+v", l2b)
	}
	// Tile 3 never granted.

	seq, tiles := lt.Export()
	restored := ImportLeaseTable(seq, tiles)

	if restored.Done() != 1 || restored.Tiles() != 4 {
		t.Fatalf("restored done=%d tiles=%d", restored.Done(), restored.Tiles())
	}
	// The surviving holders' leases are intact: renew and complete
	// under the pre-export coordinates.
	if !restored.Renew(l1.Tile, l1.Seq, now.Add(2*ttl), ttl) {
		t.Fatal("restored lease refused renewal")
	}
	if st := restored.Complete(l2b.Tile, l2b.Seq); st != CompleteAccepted {
		t.Fatalf("restored re-issue completion = %v", st)
	}
	// The next acquire takes the never-granted tile with a fresh seq
	// above everything exported.
	l3, ok := restored.Acquire(now.Add(2*ttl+ttl/2), ttl)
	if !ok || l3.Tile != 3 || l3.Attempt != 1 {
		t.Fatalf("post-import acquire = %+v ok=%v", l3, ok)
	}
	if l3.Seq <= l2b.Seq {
		t.Fatalf("post-import seq %d did not advance past exported %d", l3.Seq, l2b.Seq)
	}
	// Tile 1's restored deadline is honored: past it, the tile
	// re-issues with the attempt count carried over.
	re1, ok := restored.Acquire(now.Add(10*ttl), ttl)
	if !ok || re1.Tile != 1 || re1.Attempt != 2 {
		t.Fatalf("expired restored lease re-issue = %+v ok=%v", re1, ok)
	}
}

// TestLeaseTableRestoreReplay: RestoreGrant/RestoreDone re-apply a
// journal tail on top of an imported snapshot — grants after a
// completion leave the done tile alone, and the seq counter tracks
// the replayed maximum.
func TestLeaseTableRestoreReplay(t *testing.T) {
	now := time.Unix(0, 0)
	lt := NewLeaseTable(3)
	lt.RestoreGrant(0, 7, 1, now.Add(time.Minute))
	lt.RestoreGrant(1, 8, 2, now.Add(time.Minute))
	lt.RestoreDone(1)
	lt.RestoreGrant(1, 9, 3, now.Add(time.Minute)) // late record; tile 1 stays done
	lt.RestoreDone(1)                              // idempotent

	if lt.Done() != 1 {
		t.Fatalf("done = %d, want 1", lt.Done())
	}
	if !lt.Current(0, 7) {
		t.Fatal("restored grant not current")
	}
	if lt.Current(1, 9) {
		t.Fatal("completed tile reports a current lease")
	}
	l, ok := lt.Acquire(now, time.Minute)
	if !ok || l.Tile != 2 {
		t.Fatalf("acquire = %+v ok=%v", l, ok)
	}
	if l.Seq <= 9 {
		t.Fatalf("seq %d did not advance past the replayed 9", l.Seq)
	}
}

// TestLeaseTableAvailableBelow: the count a coordinator sizes grants by
// is exactly what AcquireBelow could hand out — free tiles and lapsed
// leases under the limit, never done or covered ones.
func TestLeaseTableAvailableBelow(t *testing.T) {
	now := time.Unix(100, 0)
	ttl := 10 * time.Second
	lt := NewLeaseTable(6)
	if got := lt.AvailableBelow(now, 6); got != 6 {
		t.Fatalf("fresh table: %d available, want 6", got)
	}
	a, _ := lt.Acquire(now, ttl)
	b, _ := lt.Acquire(now, ttl)
	lt.Complete(a.Tile, a.Seq)
	if got := lt.AvailableBelow(now, 6); got != 4 {
		t.Errorf("one done, one leased: %d available, want 4", got)
	}
	if got := lt.AvailableBelow(now, 3); got != 1 {
		t.Errorf("below 3: %d available, want 1", got)
	}
	if got := lt.AvailableBelow(now, 99); got != 4 {
		t.Errorf("limit past the table: %d available, want 4", got)
	}
	later := now.Add(ttl)
	if got := lt.AvailableBelow(later, 6); got != 5 {
		t.Errorf("after the lease lapsed: %d available, want 5", got)
	}
	for n := 0; ; n++ {
		if _, ok := lt.AcquireBelow(later, ttl, 6); !ok {
			if n != 5 {
				t.Errorf("AcquireBelow granted %d tiles, AvailableBelow promised 5", n)
			}
			break
		}
	}
	_ = b
}
