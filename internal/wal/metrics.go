package wal

import (
	"time"

	"trigene/internal/obs"
)

// metrics holds the log's resolved series. The zero value (all nil
// metrics) is fully functional: every update is a no-op, so the
// uninstrumented log pays nothing but nil checks.
type metrics struct {
	appends       *obs.Counter
	appendBytes   *obs.Counter
	syncs         *obs.Counter
	syncSeconds   *obs.Histogram
	snapshots     *obs.Counter
	snapshotBytes *obs.Gauge
	journalBytes  *obs.Gauge
	snapSeconds   *obs.Histogram
}

// Instrument registers the log's metrics on reg and starts recording:
// appended records and bytes, fsync count and latency, snapshot
// count, size and duration, and the bytes in the current journal
// generation. Safe to call with a nil registry (a no-op) and idempotent
// per registry.
func (l *Log) Instrument(reg *obs.Registry) {
	l.m = metrics{
		appends:       reg.Counter("trigene_wal_appends_total", "Records appended to the write-ahead journal."),
		appendBytes:   reg.Counter("trigene_wal_append_bytes_total", "Payload bytes appended to the write-ahead journal."),
		syncs:         reg.Counter("trigene_wal_fsyncs_total", "Journal fsync calls."),
		syncSeconds:   reg.Histogram("trigene_wal_fsync_seconds", "Journal fsync latency.", obs.DurationBuckets),
		snapshots:     reg.Counter("trigene_wal_snapshots_total", "Snapshots written."),
		snapshotBytes: reg.Gauge("trigene_wal_snapshot_bytes", "Size of the last snapshot written."),
		journalBytes:  reg.Gauge("trigene_wal_journal_bytes", "Framed record bytes in the current journal generation."),
		snapSeconds:   reg.Histogram("trigene_wal_snapshot_seconds", "Snapshot write+cutover latency.", obs.DurationBuckets),
	}
	l.m.journalBytes.Set(float64(l.journalBytes))
}

// observeSync records one fsync in its counter and latency histogram.
func (l *Log) observeSync(start time.Time) {
	l.m.syncs.Inc()
	l.m.syncSeconds.Observe(time.Since(start).Seconds())
}
