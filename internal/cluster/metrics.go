package cluster

import (
	"trigene/internal/obs"
)

// coordMetrics is the coordinator's instrumentation handle. The zero
// value (no registry attached) makes every hook a no-op, so the
// request handlers never branch on whether metrics are enabled.
type coordMetrics struct {
	submitted     *obs.Counter
	referenced    *obs.Counter            // submissions run on a dataset already held
	uploaded      *obs.Counter            // submissions that carried their dataset
	finished      map[string]*obs.Counter // by terminal job state
	leasesGranted *obs.Counter
	leasesRenewed *obs.Counter
	leasesExpired *obs.Counter // renewals rejected: the lease lapsed or was superseded
	reissued      *obs.Counter // grants with Attempt > 1
	released      *obs.Counter // explicit releases (worker leave)
	completed     *obs.Counter
	discarded     *obs.Counter // duplicate/stale completions

	commitRecords   *obs.Histogram // journal records made durable per fsync
	completionBatch *obs.Histogram // tile results per done request
}

// batchBuckets is the bucket ladder of the per-fsync and per-request
// batch-size histograms: powers of two up to a whole grant.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Instrument registers the coordinator's metric series on reg and
// installs the live collectors: job and lease counters on the request
// paths, plus queue-depth and per-worker staleness gauges computed
// under the coordinator's lock at scrape time. Call it once, before
// serving traffic (after Recover on durable coordinators, so replay
// does not count as live traffic). A nil registry is a no-op.
func (c *Coordinator) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.cm.submitted = reg.Counter("trigene_coord_jobs_submitted_total",
		"Jobs accepted (journaled and acknowledged) by the coordinator.")
	const subHelp = "Submissions accepted, by how the dataset arrived: named by content hash and already held, or uploaded."
	c.cm.referenced = reg.Counter("trigene_cluster_submissions_total", subHelp, obs.L("dataset", "referenced"))
	c.cm.uploaded = reg.Counter("trigene_cluster_submissions_total", subHelp, obs.L("dataset", "uploaded"))
	c.cm.finished = map[string]*obs.Counter{
		StateDone:      reg.Counter("trigene_coord_jobs_finished_total", "Jobs that left the running state, by outcome.", obs.L("state", StateDone)),
		StateFailed:    reg.Counter("trigene_coord_jobs_finished_total", "Jobs that left the running state, by outcome.", obs.L("state", StateFailed)),
		StateCancelled: reg.Counter("trigene_coord_jobs_finished_total", "Jobs that left the running state, by outcome.", obs.L("state", StateCancelled)),
	}
	c.cm.leasesGranted = reg.Counter("trigene_coord_leases_granted_total",
		"Tile leases granted to workers.")
	c.cm.leasesRenewed = reg.Counter("trigene_coord_leases_renewed_total",
		"Lease heartbeats accepted.")
	c.cm.leasesExpired = reg.Counter("trigene_coord_leases_expired_total",
		"Lease heartbeats rejected because the lease lapsed or was superseded.")
	c.cm.reissued = reg.Counter("trigene_coord_leases_reissued_total",
		"Tile leases granted for a second or later attempt.")
	c.cm.released = reg.Counter("trigene_coord_leases_released_total",
		"Leases released early by a departing worker.")
	c.cm.completed = reg.Counter("trigene_coord_tiles_completed_total",
		"Tile completions accepted into job results.")
	c.cm.discarded = reg.Counter("trigene_coord_completions_discarded_total",
		"Tile completions discarded as duplicate or stale.")
	c.cm.commitRecords = reg.Histogram("trigene_coord_commit_records",
		"Journal records made durable by one group commit (one fsync).", batchBuckets)
	c.cm.completionBatch = reg.Histogram("trigene_coord_completion_batch",
		"Tile results carried by one done request.", batchBuckets)
	reg.GaugeFunc("trigene_coord_jobs_running",
		"Jobs currently in the running state.",
		func() []obs.Sample {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, j := range c.jobs {
				if j.state == StateRunning {
					n++
				}
			}
			return []obs.Sample{{Value: float64(n)}}
		})
	reg.GaugeFunc("trigene_coord_queue_tiles",
		"Unfinished tiles across running jobs (the coordinator's queue depth).",
		func() []obs.Sample {
			c.mu.Lock()
			defer c.mu.Unlock()
			var pending int64
			for _, j := range c.jobs {
				if j.state == StateRunning {
					pending += int64(j.tiles - j.leases.Done())
				}
			}
			return []obs.Sample{{Value: float64(pending)}}
		})
	c.mu.Lock()
	durable := c.log != nil
	if durable {
		c.log.Instrument(reg)
	}
	c.mu.Unlock()
	if durable {
		reg.GaugeFunc("trigene_cluster_pack_store_bytes",
			"Bytes of the dataset packs in the durable coordinator's pack store.",
			func() []obs.Sample {
				return []obs.Sample{{Value: float64(c.packStoreBytes())}}
			})
	}
	reg.GaugeFunc("trigene_coord_worker_staleness_seconds",
		"Seconds since each registered worker was last seen.",
		func() []obs.Sample {
			now := c.cfg.Now()
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]obs.Sample, 0, len(c.workers))
			for id, wi := range c.workers {
				out = append(out, obs.Sample{
					Value:  now.Sub(wi.lastSeen).Seconds(),
					Labels: []obs.Label{obs.L("worker", id)},
				})
			}
			return out
		})
}

// submission records an accepted submission by how its dataset arrived.
func (cm *coordMetrics) submission(uploaded bool) {
	if uploaded {
		cm.uploaded.Inc()
	} else {
		cm.referenced.Inc()
	}
}

// finishCount records a job leaving the running state.
func (cm *coordMetrics) finishCount(state string) {
	if cm.finished != nil {
		cm.finished[state].Inc()
	}
}

// workerMetrics is the worker's instrumentation handle; zero value =
// no-op, like coordMetrics.
type workerMetrics struct {
	datasetLoads map[string]*obs.Counter // by source: memory, disk, fetch
	tiles        *obs.Counter
	tileSeconds  *obs.Histogram
	idleSeconds  *obs.Histogram // executor waits for a grant
	leasesLost   *obs.Counter
	draining     *obs.Gauge
}

// datasetLoad records where one tile's dataset came from.
func (wm *workerMetrics) datasetLoad(source string) {
	if wm.datasetLoads != nil {
		wm.datasetLoads[source].Inc()
	}
}

// Instrument registers the worker's metric series on reg. The same
// registry is handed to every tile's Session.Search (WithMetrics), so
// a worker's /metrics endpoint exposes the engine and store series
// alongside its own. Call before Run; a nil registry is a no-op.
func (w *Worker) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.reg = reg
	const loadHelp = "Dataset loads per tile batch, by source: the in-memory session LRU, the on-disk pack cache, or a coordinator fetch."
	w.wm.datasetLoads = map[string]*obs.Counter{
		"memory": reg.Counter("trigene_worker_dataset_loads_total", loadHelp, obs.L("source", "memory")),
		"disk":   reg.Counter("trigene_worker_dataset_loads_total", loadHelp, obs.L("source", "disk")),
		"fetch":  reg.Counter("trigene_worker_dataset_loads_total", loadHelp, obs.L("source", "fetch")),
	}
	w.wm.tiles = reg.Counter("trigene_worker_tiles_executed_total",
		"Tiles executed to completion (whether or not the result was accepted).")
	w.wm.tileSeconds = reg.Histogram("trigene_worker_tile_seconds",
		"Wall time of one tile's search.", obs.DurationBuckets)
	w.wm.idleSeconds = reg.Histogram("trigene_worker_idle_seconds",
		"Time the executor spent with no tile to run, per wait for the next grant.", obs.DurationBuckets)
	w.wm.leasesLost = reg.Counter("trigene_worker_leases_lost_total",
		"Leases lost to expiry or re-issue while this worker held them.")
	w.wm.draining = reg.Gauge("trigene_worker_draining",
		"1 while the worker is draining (finishing held leases, taking no new ones).")
	reg.GaugeFunc("trigene_worker_tiles_per_sec",
		"EWMA of this worker's measured tile throughput.",
		func() []obs.Sample {
			return []obs.Sample{{Value: w.tilesPerSec()}}
		})
}
