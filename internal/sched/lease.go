package sched

import (
	"fmt"
	"sync"
	"time"
)

// LeaseTable is the bookkeeping side of distributed tile execution: n
// tiles, each of which is handed out under a deadline-bearing lease,
// renewed by heartbeats, re-issued when its deadline passes, and
// completed exactly once. It is the piece a network coordinator puts
// between a Source's tiles and remote consumers that can die mid-tile:
// whatever the interleaving of grants, expiries and late completions,
// each tile contributes exactly one result, so a merged report stays
// bit-exact with a single-node run.
//
// The clock is always passed in by the caller, which keeps expiry
// deterministic under test.
type LeaseTable struct {
	mu    sync.Mutex
	tiles []tileLease
	seq   uint64
	done  int
}

// tileLease is the per-tile lease state.
type tileLease struct {
	state    int // tileFree, tileLeased or tileDone
	seq      uint64
	deadline time.Time
	attempts int
}

const (
	tileFree = iota
	tileLeased
	tileDone
)

// TileLease identifies one granted lease: tile index, a grant sequence
// number distinguishing re-issues of the same tile, and the attempt
// count (1 on first grant).
type TileLease struct {
	Tile    int
	Seq     uint64
	Attempt int
}

// CompleteStatus is the outcome of LeaseTable.Complete.
type CompleteStatus int

const (
	// CompleteAccepted: first completion of the tile; its result counts.
	CompleteAccepted CompleteStatus = iota
	// CompleteDuplicate: the tile was already completed (a re-issued
	// worker and the original both finished); the result is discarded.
	CompleteDuplicate
	// CompleteStale: the lease was superseded by a re-issue that is
	// still outstanding; the result is discarded.
	CompleteStale
	// CompleteUnknown: the coordinates identify no granted lease.
	CompleteUnknown
)

// String names the status in logs.
func (s CompleteStatus) String() string {
	switch s {
	case CompleteAccepted:
		return "accepted"
	case CompleteDuplicate:
		return "duplicate"
	case CompleteStale:
		return "stale"
	case CompleteUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("CompleteStatus(%d)", int(s))
	}
}

// NewLeaseTable returns a table over n tiles, all unleased.
func NewLeaseTable(n int) *LeaseTable {
	if n < 0 {
		n = 0
	}
	return &LeaseTable{tiles: make([]tileLease, n)}
}

// Acquire grants a lease on the next available tile — one never
// granted, or one whose current lease deadline has passed — with a
// deadline of now+ttl. It returns false when every tile is either done
// or covered by an unexpired lease.
func (lt *LeaseTable) Acquire(now time.Time, ttl time.Duration) (TileLease, bool) {
	return lt.AcquireBelow(now, ttl, len(lt.tiles))
}

// available reports whether the tile can be granted at the given
// instant: not done, and not covered by an unexpired lease.
func (t *tileLease) available(now time.Time) bool {
	return t.state == tileFree || (t.state == tileLeased && !now.Before(t.deadline))
}

// AcquireBelow is Acquire restricted to tiles with index < limit: the
// phase gate of a two-stage job, where tiles [0, limit) are the
// stage-1 screen shards and nothing past them may be granted until
// every stage-1 tile completes. A limit at or above the table size
// behaves exactly like Acquire.
func (lt *LeaseTable) AcquireBelow(now time.Time, ttl time.Duration, limit int) (TileLease, bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if limit > len(lt.tiles) {
		limit = len(lt.tiles)
	}
	for i := 0; i < limit; i++ {
		t := &lt.tiles[i]
		if !t.available(now) {
			continue
		}
		lt.seq++
		t.state = tileLeased
		t.seq = lt.seq
		t.deadline = now.Add(ttl)
		t.attempts++
		return TileLease{Tile: i, Seq: t.seq, Attempt: t.attempts}, true
	}
	return TileLease{}, false
}

// AvailableBelow returns how many tiles with index < limit AcquireBelow
// could grant at the given instant — what a coordinator sizing a
// multi-tile grant divides among its workers.
func (lt *LeaseTable) AvailableBelow(now time.Time, limit int) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if limit > len(lt.tiles) {
		limit = len(lt.tiles)
	}
	n := 0
	for i := 0; i < limit; i++ {
		if lt.tiles[i].available(now) {
			n++
		}
	}
	return n
}

// DoneBelow returns how many tiles with index < limit have completed
// (the stage-1 completion check of a two-stage job).
func (lt *LeaseTable) DoneBelow(limit int) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if limit > len(lt.tiles) {
		limit = len(lt.tiles)
	}
	n := 0
	for i := 0; i < limit; i++ {
		if lt.tiles[i].state == tileDone {
			n++
		}
	}
	return n
}

// Renew extends the lease (tile, seq) to now+ttl. It reports false
// when the lease is no longer current — the tile completed, or the
// lease expired and was re-issued — telling the holder to abandon the
// tile.
func (lt *LeaseTable) Renew(tile int, seq uint64, now time.Time, ttl time.Duration) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if tile < 0 || tile >= len(lt.tiles) {
		return false
	}
	t := &lt.tiles[tile]
	if t.state != tileLeased || t.seq != seq {
		return false
	}
	t.deadline = now.Add(ttl)
	return true
}

// Complete records the result of lease (tile, seq): the first
// completion of a tile under its current grant is accepted, everything
// else is classified for the caller to discard. A holder whose lease
// expired but was not yet re-issued still completes successfully —
// re-computation is only forced when a re-issue actually happened.
func (lt *LeaseTable) Complete(tile int, seq uint64) CompleteStatus {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if tile < 0 || tile >= len(lt.tiles) {
		return CompleteUnknown
	}
	t := &lt.tiles[tile]
	switch {
	case t.state == tileDone:
		return CompleteDuplicate
	case t.state != tileLeased || seq == 0 || seq > t.seq:
		return CompleteUnknown
	case t.seq != seq:
		return CompleteStale
	}
	t.state = tileDone
	lt.done++
	return CompleteAccepted
}

// Current reports whether (tile, seq) is the tile's live lease: still
// leased and not superseded by a re-issue. Holders of non-current
// leases must not be allowed to speak for the tile (complete it, fail
// the job).
func (lt *LeaseTable) Current(tile int, seq uint64) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if tile < 0 || tile >= len(lt.tiles) {
		return false
	}
	t := &lt.tiles[tile]
	return t.state == tileLeased && t.seq == seq
}

// Tiles returns the table size.
func (lt *LeaseTable) Tiles() int { return len(lt.tiles) }

// Done returns how many tiles have completed.
func (lt *LeaseTable) Done() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.done
}

// Outstanding returns how many tiles are covered by an unexpired lease
// at the given instant.
func (lt *LeaseTable) Outstanding(now time.Time) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	n := 0
	for i := range lt.tiles {
		t := &lt.tiles[i]
		if t.state == tileLeased && now.Before(t.deadline) {
			n++
		}
	}
	return n
}

// Attempts returns how many times the tile has been granted.
func (lt *LeaseTable) Attempts(tile int) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if tile < 0 || tile >= len(lt.tiles) {
		return 0
	}
	return lt.tiles[tile].attempts
}

// Release gives up the live lease (tile, seq) before its deadline —
// a holder draining out cleanly — so the next Acquire re-issues the
// tile immediately instead of waiting for expiry. The surrendered
// attempt is un-counted (a clean hand-back must not push the tile
// toward an attempt cap). It reports false when the lease is not
// current (completed, or superseded by a re-issue).
func (lt *LeaseTable) Release(tile int, seq uint64) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if tile < 0 || tile >= len(lt.tiles) {
		return false
	}
	t := &lt.tiles[tile]
	if t.state != tileLeased || t.seq != seq {
		return false
	}
	t.state = tileFree
	if t.attempts > 0 {
		t.attempts--
	}
	return true
}

// Leased returns the tiles covered by an unexpired lease at the
// given instant, in tile order.
func (lt *LeaseTable) Leased(now time.Time) []int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var tiles []int
	for i := range lt.tiles {
		t := &lt.tiles[i]
		if t.state == tileLeased && now.Before(t.deadline) {
			tiles = append(tiles, i)
		}
	}
	return tiles
}

// Exported tile states (TileState.State).
const (
	// TileStateFree: never granted, expired-and-not-yet-reissued, or
	// released.
	TileStateFree = iota
	// TileStateLeased: covered by a grant (possibly past deadline).
	TileStateLeased
	// TileStateDone: completed exactly once.
	TileStateDone
)

// TileState is one tile's serializable lease state — the unit of the
// table's Export/Import round-trip, which a durable coordinator
// snapshots and replays so a restart resumes the lease book exactly
// where the crash left it.
type TileState struct {
	State          int    `json:"s"`
	Seq            uint64 `json:"q,omitempty"`
	DeadlineUnixNs int64  `json:"d,omitempty"`
	Attempts       int    `json:"a,omitempty"`
}

// Export snapshots the table: the grant-sequence counter and every
// tile's state. Import of the result reproduces the table exactly.
func (lt *LeaseTable) Export() (seq uint64, tiles []TileState) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	tiles = make([]TileState, len(lt.tiles))
	for i := range lt.tiles {
		t := &lt.tiles[i]
		ts := TileState{State: t.state, Seq: t.seq, Attempts: t.attempts}
		if !t.deadline.IsZero() {
			ts.DeadlineUnixNs = t.deadline.UnixNano()
		}
		tiles[i] = ts
	}
	return lt.seq, tiles
}

// ImportLeaseTable rebuilds a table from an Export. Unknown states
// come back free; the sequence counter is raised to cover every
// imported seq so re-granted tiles can never collide with
// pre-snapshot tokens.
func ImportLeaseTable(seq uint64, tiles []TileState) *LeaseTable {
	lt := NewLeaseTable(len(tiles))
	for i, ts := range tiles {
		t := &lt.tiles[i]
		switch ts.State {
		case TileStateLeased:
			t.state = tileLeased
		case TileStateDone:
			t.state = tileDone
			lt.done++
		default:
			t.state = tileFree
		}
		t.seq = ts.Seq
		t.attempts = ts.Attempts
		if ts.DeadlineUnixNs != 0 {
			t.deadline = time.Unix(0, ts.DeadlineUnixNs)
		}
		if ts.Seq > seq {
			seq = ts.Seq
		}
	}
	lt.seq = seq
	return lt
}

// RestoreGrant re-applies a journaled grant during replay: the tile
// becomes leased under exactly the recorded coordinates, so a worker
// that survived the coordinator crash can still renew and complete
// under its pre-crash token, and a dead worker's restored lease
// re-issues when its recorded deadline passes. Completed tiles are
// left alone (a grant record can precede the completion that
// superseded it in the same journal).
func (lt *LeaseTable) RestoreGrant(tile int, seq uint64, attempt int, deadline time.Time) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if tile < 0 || tile >= len(lt.tiles) {
		return
	}
	t := &lt.tiles[tile]
	if t.state != tileDone {
		t.state = tileLeased
		t.seq = seq
		t.deadline = deadline
		t.attempts = attempt
	}
	if seq > lt.seq {
		lt.seq = seq
	}
}

// RestoreDone re-applies a journaled completion during replay,
// marking the tile done regardless of its lease state.
func (lt *LeaseTable) RestoreDone(tile int) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if tile < 0 || tile >= len(lt.tiles) {
		return
	}
	t := &lt.tiles[tile]
	if t.state != tileDone {
		t.state = tileDone
		lt.done++
	}
}
