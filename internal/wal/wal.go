// Package wal is the durability substrate of the cluster coordinator:
// an append-only, length-prefixed, checksummed record journal with
// periodic snapshots and deterministic replay.
//
// A Log owns one directory holding at most two files:
//
//	snapshot.snap    the latest compacted state (atomic rename)
//	journal-<g>.wal  records appended since that snapshot
//
// Each snapshot carries a generation number g; the journal that
// follows it is journal-<g>.wal, so a crash between writing a new
// snapshot and resetting the journal can never replay a record twice:
// Open loads the snapshot, opens exactly the journal of its
// generation (creating it when the crash landed in between), and
// deletes journals of any other generation.
//
// Records are opaque bytes framed as
//
//	[payload length  u32 LE][CRC-32C of payload  u32 LE][payload]
//
// and appended through a buffer: Append is cheap enough for the hot
// path (a lease grant), Sync flushes and fsyncs before a state
// transition is acknowledged to a client. Replay stops at the first
// torn or corrupt record and truncates the file there — the tail a
// crash interrupted mid-write is discarded, everything before it is
// trusted by checksum.
//
// The log counts the framed bytes of its current journal generation,
// recovered plus appended, and remembers the size of the last snapshot,
// so a caller can compact when the journal has outgrown the snapshot
// that would replace it.
//
// Sync is Flush then Fsync, and the halves are exported so a caller can
// commit in groups: Flush (buffer to file, cheap) under the lock that
// serializes its appends, Fsync (the slow half) outside it, covering
// every record flushed before it started.
//
// The Log is not safe for concurrent use; callers serialize (the
// coordinator appends under its own mutex). The one exception is
// Fsync, which may overlap Append and Flush — but not WriteSnapshot or
// Close, which replace the file it syncs.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const (
	journalMagic = "TWJ1"
	snapMagic    = "TWS1"
	// headerLen is the journal file header: magic + generation.
	headerLen = 4 + 8
	// recordOverhead frames every record: length + CRC.
	recordOverhead = 4 + 4
	// MaxRecord bounds one record's payload; a longer length prefix is
	// treated as corruption (it is far beyond anything the coordinator
	// journals, and it stops a flipped length bit from swallowing the
	// rest of the file as one giant "record").
	MaxRecord = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log: the recovered state (snapshot +
// journal records) plus an append head.
type Log struct {
	dir string
	gen uint64

	f            *os.File
	w            *bufio.Writer
	appended     int   // records appended since the last snapshot (or open)
	journalBytes int64 // framed record bytes in the current generation
	snapBytes    int64 // payload bytes of the last snapshot
	broken       error // a *CutoverError once a snapshot cut-over failed midway

	snapshot []byte
	records  [][]byte

	m metrics // resolved series; zero value is a no-op (see Instrument)
}

// CutoverError is returned by WriteSnapshot when the new snapshot was
// renamed into place but the cut-over could not be made durable, and
// by every later Append, Flush and Fsync: which generation a restart
// recovers is then unknown, so the log acknowledges nothing more. Open
// the directory again to continue.
type CutoverError struct {
	Gen uint64 // the generation the snapshot was written as
	Err error
}

func (e *CutoverError) Error() string {
	return fmt.Sprintf("wal: snapshot cut-over to generation %d failed, log refuses writes: %v", e.Gen, e.Err)
}

func (e *CutoverError) Unwrap() error { return e.Err }

// Open opens (creating if needed) the log in dir and recovers it:
// after Open, Snapshot and Records hold everything a deterministic
// replay needs, in order.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir}
	if err := l.readSnapshot(); err != nil {
		return nil, err
	}
	if err := l.openJournal(); err != nil {
		return nil, err
	}
	l.dropStaleJournals()
	return l, nil
}

// Snapshot returns the snapshot payload Open recovered (nil when there
// was none). WriteSnapshot drops it: the log keeps no copy of what it
// writes, only its size (SnapshotBytes).
func (l *Log) Snapshot() []byte { return l.snapshot }

// Records returns the journal records recovered after the snapshot,
// oldest first. Valid until the next WriteSnapshot.
func (l *Log) Records() [][]byte { return l.records }

// Generation returns the current snapshot/journal generation.
func (l *Log) Generation() uint64 { return l.gen }

// AppendedSinceSnapshot counts records appended (plus recovered) on
// the current journal generation.
func (l *Log) AppendedSinceSnapshot() int { return l.appended + len(l.records) }

// JournalBytes counts the framed record bytes of the current journal
// generation, recovered plus appended (buffered ones included), without
// the file header: what replay reads after the snapshot.
func (l *Log) JournalBytes() int64 { return l.journalBytes }

// SnapshotBytes is the payload size of the last snapshot, written or
// recovered (0 when there is none).
func (l *Log) SnapshotBytes() int64 { return l.snapBytes }

// Append frames and buffers one record. It does NOT reach the disk
// until Sync (or the buffer fills): callers acknowledging a state
// transition must Sync first; callers journaling transitions that are
// safe to lose in a crash (a lease grant — the tile simply re-issues)
// may leave the flush to the next critical record.
func (l *Log) Append(rec []byte) error {
	if l.broken != nil {
		return l.broken
	}
	if len(rec) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(rec), MaxRecord)
	}
	var frame [recordOverhead]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(rec, castagnoli))
	if _, err := l.w.Write(frame[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.w.Write(rec); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.appended++
	l.journalBytes += int64(recordOverhead + len(rec))
	l.m.appends.Inc()
	l.m.appendBytes.Add(int64(len(rec)))
	l.m.journalBytes.Set(float64(l.journalBytes))
	return nil
}

// Sync flushes buffered appends and fsyncs the journal: every record
// appended before Sync survives a machine crash once it returns.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.Fsync()
}

// Flush hands buffered appends to the file. They survive the process
// from here on, and a machine crash only after the next Fsync.
func (l *Log) Flush() error {
	if l.broken != nil {
		return l.broken
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Fsync makes every record flushed before the call durable.
func (l *Log) Fsync() error {
	if l.broken != nil {
		return l.broken
	}
	if l.f == nil {
		return fmt.Errorf("wal: fsync: log is closed")
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.observeSync(start)
	return nil
}

// WriteSnapshot atomically replaces the snapshot with state and
// starts a fresh journal generation: the records compacted into the
// snapshot will not replay again, and the recovered Snapshot/Records
// views are dropped.
//
// The next generation's journal is created and fsynced before the
// snapshot is renamed into place, so an error up to the rename leaves
// the current generation whole and appending to it. An error after the
// rename is a *CutoverError, and the log refuses every later write.
func (l *Log) WriteSnapshot(state []byte) error {
	if l.broken != nil {
		return l.broken
	}
	snapStart := time.Now()
	newGen := l.gen + 1
	next, err := createJournal(l.dir, newGen)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(l.dir, newGen, state); err != nil {
		next.Close()
		os.Remove(filepath.Join(l.dir, journalName(newGen)))
		return err
	}
	// The rename is done; only making it durable is left. Should that
	// fail, a restart may recover either generation, so neither journal
	// may take another record.
	if err := syncDir(l.dir); err != nil {
		next.Close()
		l.broken = &CutoverError{Gen: newGen, Err: err}
		return l.broken
	}

	// The snapshot is durable: cut over to the new journal generation
	// and drop the compacted one.
	if l.f != nil {
		l.f.Close()
		os.Remove(filepath.Join(l.dir, journalName(l.gen)))
	}
	l.gen = newGen
	l.f, l.w = next, bufio.NewWriter(next)
	l.snapshot, l.records = nil, nil
	l.appended, l.journalBytes, l.snapBytes = 0, 0, int64(len(state))
	l.m.snapshots.Inc()
	l.m.snapshotBytes.Set(float64(len(state)))
	l.m.journalBytes.Set(0)
	l.m.snapSeconds.Observe(time.Since(snapStart).Seconds())
	return nil
}

// writeSnapshotFile writes state as generation gen's snapshot beside
// its final name and renames it into place, fsyncing the file first,
// so a crash leaves either the old or the new snapshot — never a torn
// one. The caller makes the rename durable.
func writeSnapshotFile(dir string, gen uint64, state []byte) error {
	tmp, err := os.CreateTemp(dir, "snapshot.*.tmp")
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	var hdr [4 + 8 + 8 + 4]byte
	copy(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], gen)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(state)))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(state, castagnoli))
	_, err = tmp.Write(hdr[:])
	if err == nil {
		_, err = tmp.Write(state)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, "snapshot.snap"))
	}
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// Close flushes and closes the journal. The recovered views stay
// readable; appends after Close fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// readSnapshot loads and validates snapshot.snap, if present. A
// corrupt snapshot is a hard error: it is written atomically, so
// damage means the storage itself lied, and silently starting empty
// would re-execute everything the snapshot recorded.
func (l *Log) readSnapshot() error {
	raw, err := os.ReadFile(filepath.Join(l.dir, "snapshot.snap"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if len(raw) < 4+8+8+4 || string(raw[0:4]) != snapMagic {
		return fmt.Errorf("wal: %s/snapshot.snap is not a snapshot", l.dir)
	}
	gen := binary.LittleEndian.Uint64(raw[4:12])
	size := binary.LittleEndian.Uint64(raw[12:20])
	sum := binary.LittleEndian.Uint32(raw[20:24])
	body := raw[24:]
	if uint64(len(body)) != size {
		return fmt.Errorf("wal: snapshot: %d payload bytes, header says %d", len(body), size)
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return fmt.Errorf("wal: snapshot: checksum mismatch")
	}
	l.gen = gen
	l.snapshot = body
	l.snapBytes = int64(len(body))
	return nil
}

// openJournal opens (creating) the current generation's journal and
// recovers its records, truncating a torn tail.
func (l *Log) openJournal() error {
	path := filepath.Join(l.dir, journalName(l.gen))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		// Either a brand-new log, or a crash after WriteSnapshot renamed
		// the snapshot but before the fresh journal's entry was durable.
		if f, err = createJournal(l.dir, l.gen); err != nil {
			return err
		}
		l.f, l.w = f, bufio.NewWriter(f)
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if len(raw) < headerLen || string(raw[0:4]) != journalMagic ||
		binary.LittleEndian.Uint64(raw[4:headerLen]) != l.gen {
		f.Close()
		return fmt.Errorf("wal: %s is not generation-%d journal", path, l.gen)
	}
	records, good := DecodeRecords(raw[headerLen:])
	keep := int64(headerLen + good)
	if keep < int64(len(raw)) {
		// A crash tore the tail mid-append; everything after the last
		// intact record is garbage and must not interleave with new
		// appends.
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.records = records
	l.journalBytes = int64(good)
	return nil
}

// createJournal writes and fsyncs an empty journal of generation gen
// in dir, replacing any file of that name.
func createJournal(dir string, gen uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalName(gen)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], journalMagic)
	binary.LittleEndian.PutUint64(hdr[4:], gen)
	_, err = f.Write(hdr[:])
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return f, nil
}

// dropStaleJournals deletes journal files of any generation other
// than the current one (left behind by a crash inside WriteSnapshot's
// cut-over; their records are all inside the snapshot).
func (l *Log) dropStaleJournals() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		if name != journalName(l.gen) {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
}

func journalName(gen uint64) string {
	return "journal-" + strconv.FormatUint(gen, 10) + ".wal"
}

// DecodeRecords parses a framed record stream, returning the intact
// records and how many bytes they occupy. Parsing stops — without
// error — at the first torn or corrupt frame: a short header, a
// length beyond MaxRecord, a truncated payload, or a checksum
// mismatch. The slice aliases data.
func DecodeRecords(data []byte) (records [][]byte, consumed int) {
	off := 0
	for {
		if len(data)-off < recordOverhead {
			return records, off
		}
		size := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if size > MaxRecord || int(size) > len(data)-off-recordOverhead {
			return records, off
		}
		payload := data[off+recordOverhead : off+recordOverhead+int(size)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return records, off
		}
		records = append(records, payload)
		off += recordOverhead + int(size)
	}
}

// EncodeRecord appends one framed record to buf — the exact bytes
// Append writes — and returns the extended buffer. It is the codec's
// encode half, exported so tests and fuzzers can pin the round-trip.
func EncodeRecord(buf, rec []byte) []byte {
	var frame [recordOverhead]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(rec, castagnoli))
	buf = append(buf, frame[:]...)
	return append(buf, rec...)
}

// syncDir fsyncs a directory so a rename inside it is durable. It is a
// variable so a test can fail the step after WriteSnapshot's rename.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
