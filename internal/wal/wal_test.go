package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes l (if non-nil) and opens the directory fresh —
// the recovery path every test drives.
func reopen(t *testing.T, l *Log, dir string) *Log {
	t.Helper()
	if l != nil {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	nl, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func wantRecords(t *testing.T, l *Log, want ...string) {
	t.Helper()
	got := l.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLogRoundTrip: records appended and synced come back in order on
// reopen, with no snapshot involved.
func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.Snapshot() != nil || len(l.Records()) != 0 {
		t.Fatalf("fresh log recovered state: snap=%v records=%d", l.Snapshot(), len(l.Records()))
	}
	appendAll(t, l, "alpha", "", "gamma with a longer payload")

	l = reopen(t, l, dir)
	defer l.Close()
	wantRecords(t, l, "alpha", "", "gamma with a longer payload")
	if l.Snapshot() != nil {
		t.Error("snapshot appeared from nowhere")
	}
	// Appending after recovery extends the same journal.
	appendAll(t, l, "delta")
	l = reopen(t, l, dir)
	defer l.Close()
	wantRecords(t, l, "alpha", "", "gamma with a longer payload", "delta")
}

// TestLogSnapshotCompaction: WriteSnapshot replaces the recovered
// state, rotates the journal generation, and only post-snapshot
// records replay.
func TestLogSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "old-1", "old-2")
	if err := l.WriteSnapshot([]byte("state@2")); err != nil {
		t.Fatal(err)
	}
	if l.AppendedSinceSnapshot() != 0 {
		t.Errorf("appended-since-snapshot = %d after snapshot", l.AppendedSinceSnapshot())
	}
	appendAll(t, l, "new-1")

	gen := l.Generation()
	l = reopen(t, l, dir)
	defer l.Close()
	if l.Generation() != gen {
		t.Errorf("generation = %d, want %d", l.Generation(), gen)
	}
	if string(l.Snapshot()) != "state@2" {
		t.Errorf("snapshot = %q", l.Snapshot())
	}
	wantRecords(t, l, "new-1")

	// Exactly one journal file remains — the compacted one is gone.
	matches, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0] != filepath.Join(dir, journalName(gen)) {
		t.Errorf("journal files = %v", matches)
	}
}

// TestLogJournalBytes pins the compaction trigger's currency: the
// framed bytes of the current generation count appends and recovered
// records alike, survive a reopen and a torn-tail truncation, and reset
// on WriteSnapshot, which also records the snapshot's size.
func TestLogJournalBytes(t *testing.T) {
	framed := func(recs ...string) int64 {
		var n int64
		for _, r := range recs {
			n += int64(recordOverhead + len(r))
		}
		return n
	}
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.JournalBytes() != 0 || l.SnapshotBytes() != 0 {
		t.Fatalf("fresh log: journal %d bytes, snapshot %d", l.JournalBytes(), l.SnapshotBytes())
	}
	if err := l.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if got, want := l.JournalBytes(), framed("buffered"); got != want {
		t.Errorf("after a buffered append: %d bytes, want %d", got, want)
	}
	appendAll(t, l, "", "third")
	if got, want := l.JournalBytes(), framed("buffered", "", "third"); got != want {
		t.Errorf("after appends: %d bytes, want %d", got, want)
	}

	l = reopen(t, l, dir)
	if got, want := l.JournalBytes(), framed("buffered", "", "third"); got != want {
		t.Errorf("recovered: %d bytes, want %d", got, want)
	}
	appendAll(t, l, "fourth")
	if got, want := l.JournalBytes(), framed("buffered", "", "third", "fourth"); got != want {
		t.Errorf("recovered plus appended: %d bytes, want %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn tail is not counted: only what replay keeps is.
	path := filepath.Join(dir, journalName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, EncodeRecord(raw, []byte("torn"))[:len(raw)+recordOverhead+1], 0o644); err != nil {
		t.Fatal(err)
	}
	l = reopen(t, nil, dir)
	if got, want := l.JournalBytes(), framed("buffered", "", "third", "fourth"); got != want {
		t.Errorf("after torn-tail truncation: %d bytes, want %d", got, want)
	}

	if err := l.WriteSnapshot([]byte("state of seventeen")); err != nil {
		t.Fatal(err)
	}
	if l.JournalBytes() != 0 || l.SnapshotBytes() != int64(len("state of seventeen")) {
		t.Errorf("after WriteSnapshot: journal %d bytes, snapshot %d", l.JournalBytes(), l.SnapshotBytes())
	}
	if l.Snapshot() != nil || l.Records() != nil {
		t.Error("WriteSnapshot kept the recovered views")
	}
	appendAll(t, l, "next")
	l = reopen(t, l, dir)
	defer l.Close()
	if got, want := l.JournalBytes(), framed("next"); got != want {
		t.Errorf("next generation recovered: %d bytes, want %d", got, want)
	}
	if l.SnapshotBytes() != int64(len("state of seventeen")) {
		t.Errorf("recovered snapshot size %d", l.SnapshotBytes())
	}
}

// TestLogSnapshotCutoverFailureKeepsJournal: when the next generation's
// journal cannot be created (a directory squats on its name),
// WriteSnapshot fails before the snapshot is replaced, and a record
// appended and synced afterwards survives a reopen — with the squatter
// still there, and again after it is gone and a snapshot succeeds.
func TestLogSnapshotCutoverFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "before")
	squatter := filepath.Join(dir, journalName(1))
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("never")); err == nil {
		t.Fatal("WriteSnapshot succeeded over a squatted journal name")
	}
	if l.Generation() != 0 {
		t.Fatalf("generation %d after a failed snapshot", l.Generation())
	}
	appendAll(t, l, "after")

	l = reopen(t, l, dir)
	if l.Generation() != 0 || l.Snapshot() != nil {
		t.Fatalf("reopened at generation %d, snapshot %q", l.Generation(), l.Snapshot())
	}
	wantRecords(t, l, "before", "after")

	os.Remove(squatter)
	if err := l.WriteSnapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "latest")
	l = reopen(t, l, dir)
	defer l.Close()
	if string(l.Snapshot()) != "state" {
		t.Errorf("snapshot = %q", l.Snapshot())
	}
	wantRecords(t, l, "latest")
}

// TestLogCutoverErrorRefusesWrites: a failure after the snapshot's
// rename leaves it unknown which generation a restart recovers, so the
// log answers that and every later write with a *CutoverError instead
// of acknowledging records a restart may drop.
func TestLogCutoverErrorRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "compacted")
	failed := errors.New("injected directory fsync failure")
	saved := syncDir
	syncDir = func(string) error { return failed }
	err = l.WriteSnapshot([]byte("state"))
	syncDir = saved

	var cut *CutoverError
	if !errors.As(err, &cut) || cut.Gen != 1 || !errors.Is(err, failed) {
		t.Fatalf("WriteSnapshot = %v, want a *CutoverError for generation 1", err)
	}
	if err := l.Append([]byte("refused")); !errors.As(err, &cut) {
		t.Errorf("Append after a failed cut-over = %v", err)
	}
	if err := l.Flush(); !errors.As(err, &cut) {
		t.Errorf("Flush after a failed cut-over = %v", err)
	}
	if err := l.Fsync(); !errors.As(err, &cut) {
		t.Errorf("Fsync after a failed cut-over = %v", err)
	}
	if err := l.WriteSnapshot([]byte("again")); !errors.As(err, &cut) {
		t.Errorf("WriteSnapshot after a failed cut-over = %v", err)
	}
	if err := l.Close(); !errors.As(err, &cut) {
		t.Errorf("Close after a failed cut-over = %v", err)
	}

	// Here the rename did land: the restart recovers the new snapshot
	// and an empty journal, and nothing was acknowledged past it.
	l = reopen(t, nil, dir)
	defer l.Close()
	if l.Generation() != 1 || string(l.Snapshot()) != "state" {
		t.Errorf("recovered generation %d, snapshot %q", l.Generation(), l.Snapshot())
	}
	wantRecords(t, l)
}

// TestLogTornTailTruncated: a crash mid-append leaves a torn tail;
// recovery keeps every intact record, drops the tail, and appends
// cleanly after it.
func TestLogTornTailTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(raw []byte) []byte
	}{
		{"short header", func(raw []byte) []byte {
			return append(raw, 0x03, 0x00)
		}},
		{"truncated payload", func(raw []byte) []byte {
			return EncodeRecord(raw, []byte("doomed"))[:len(raw)+recordOverhead+2]
		}},
		{"corrupt checksum", func(raw []byte) []byte {
			raw = EncodeRecord(raw, []byte("doomed"))
			raw[len(raw)-1] ^= 0xff
			return raw
		}},
		{"absurd length", func(raw []byte) []byte {
			var frame [recordOverhead]byte
			binary.LittleEndian.PutUint32(frame[0:4], MaxRecord+1)
			return append(raw, frame[:]...)
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, "ok-1", "ok-2")
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, journalName(0))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear.cut(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			l = reopen(t, nil, dir)
			wantRecords(t, l, "ok-1", "ok-2")
			appendAll(t, l, "ok-3")
			l = reopen(t, l, dir)
			defer l.Close()
			wantRecords(t, l, "ok-1", "ok-2", "ok-3")
		})
	}
}

// TestLogCrashBetweenSnapshotAndJournal: if the new snapshot lands
// but the fresh journal never does (or the old one survives), Open
// reconstructs a consistent view — snapshot plus an empty journal —
// and deletes the stale generation.
func TestLogCrashBetweenSnapshotAndJournal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "compacted-1", "compacted-2")
	if err := l.WriteSnapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window: resurrect the pre-snapshot journal and
	// delete the fresh one.
	stale := filepath.Join(dir, journalName(0))
	f, err := os.Create(stale)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], journalMagic)
	f.Write(hdr[:]) // generation 0
	f.Write(EncodeRecord(nil, []byte("compacted-1")))
	f.Close()
	if err := os.Remove(filepath.Join(dir, journalName(1))); err != nil {
		t.Fatal(err)
	}

	l = reopen(t, nil, dir)
	defer l.Close()
	if string(l.Snapshot()) != "snap" {
		t.Errorf("snapshot = %q", l.Snapshot())
	}
	wantRecords(t, l) // the compacted record must NOT replay
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale journal survived recovery: %v", err)
	}
}

// TestLogCorruptSnapshotIsFatal: snapshot damage is storage-level and
// must fail loudly rather than silently replaying from empty.
func TestLogCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt snapshot opened without error")
	}
}

// TestLogOversizeRecordRejected: Append refuses a record beyond the
// codec bound instead of writing a frame replay would discard.
func TestLogOversizeRecordRejected(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// TestDecodeEncodeRoundTrip pins the codec: encoding any record list
// and decoding it returns the same list and consumes every byte.
func TestDecodeEncodeRoundTrip(t *testing.T) {
	var buf []byte
	var want []string
	for i := 0; i < 50; i++ {
		rec := fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i*7))
		want = append(want, rec)
		buf = EncodeRecord(buf, []byte(rec))
	}
	records, consumed := DecodeRecords(buf)
	if consumed != len(buf) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(buf))
	}
	if len(records) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(records), len(want))
	}
	for i := range want {
		if string(records[i]) != want[i] {
			t.Errorf("record %d mismatch", i)
		}
	}
}

// TestFlushThenFsync pins the two halves of Sync a group commit takes
// apart: flushed records are in the file (a reader that opens it sees
// them, whether or not an fsync followed), records still in the buffer
// are not, an Fsync may run while appends go on, and a closed log
// refuses one instead of panicking.
func TestFlushThenFsync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.f.Close() }) // never Closed: it "crashes" below
	if err := l.Append([]byte("flushed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Fsync() }()
	if err := l.Append([]byte("appended during the fsync")); err != nil {
		t.Fatal(err)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	// A crash here: the process dies with its buffer.
	crashed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, crashed, "flushed")
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := crashed.Fsync(); err == nil {
		t.Error("Fsync on a closed log succeeded")
	}
}
