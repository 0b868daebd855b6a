// Package cluster is the network-distributed execution subsystem: a
// Coordinator owns a queue of named search jobs and leases their tiles
// over HTTP/JSON to any number of Worker processes on other machines.
//
// The design splits the distribution concern along the same seam the
// tile scheduler (internal/sched) cut for in-process execution: a job's
// search space is the sched shard space — tile t of a T-tile job is
// exactly Session.Search(WithShard(t, T)) — so a worker executes a tile
// with the ordinary public API and the Coordinator reassembles the full
// Report with MergeReports, whose bit-exact merge guarantee is already
// enforced per backend and order by the repo's shard-parity tests.
//
// Fault tolerance is lease-based (sched.LeaseTable): every granted
// tile carries a deadline, workers renew it by heartbeat while they
// compute, and a tile whose lease expires — the worker died, hung, or
// lost the network — is re-issued to the next worker that asks. The
// table accepts exactly one completion per tile, so a resurrected
// worker's late result is discarded and the merged Report is identical
// to a single-node run no matter how many leases were lost on the way.
//
// Wire contract (all JSON unless noted), rooted at /v1:
//
//	POST /v1/jobs                  submit a job (spec + tiles + dataset or
//	                               its content hash)
//	GET  /v1/jobs                  list job statuses
//	GET  /v1/jobs/{id}             one job's status (?waitMillis= parks the
//	                               request until the job leaves "running")
//	GET  /v1/jobs/{id}/dataset     the job's dataset (packed .tpack bytes)
//	GET  /v1/jobs/{id}/result      the merged Report (409 until done)
//	POST /v1/jobs/{id}/cancel      cancel a running job
//	POST /v1/lease                 acquire a grant of tiles (204 when none;
//	                               waitMillis parks the request until one is)
//	POST /v1/lease/{token}/renew   heartbeat-extend the lease deadline
//	                               ("more": every other token held)
//	POST /v1/lease/{token}/done    post the tile's result ("more": every
//	                               other result finished meanwhile)
//	POST /v1/lease/{token}/fail    report a deterministic execution error
//	POST /v1/workers/{id}/drain    stop granting new leases to a worker
//	POST /v1/workers/{id}/leave    release a worker's leases, deregister
//
// The tile data path is built so a worker never waits on the control
// plane between tiles. A grant carries several tiles, each under its own
// token; a grant that says "batch": true comes from a coordinator that
// reads "more" on done and renew, so the worker sends every result that
// finished while its previous done request was in flight as one request,
// and renews every token it holds with one heartbeat. Each token is
// still accounted exactly once and answered on its own: a done request
// without "more" keeps the single-tile contract (200 with "accepted",
// 410 for a lease that was never granted or whose job is over, 400 for a
// payload that does not decode), one with "more" always answers 200 with
// a status per token in "results" (accepted | discarded | gone |
// invalid), path token first; renew likewise answers 410 for a lone lost
// token and 200 with the "lost" tokens for a batch. A worker batches only
// when the grant said it may, and a coordinator treats a request without
// "more" as today's, so old and new mix both ways. The same holds for a
// search tile's Report: a grant that says "binaryReports": true comes
// from a coordinator that reads it as a JSON string holding the base64
// of Report.MarshalBinary as well as the JSON object, and a worker posts
// the string only under such a grant.
//
// A submission names its dataset by content hash first: the client sends
// the spec with datasetSHA256 and no bytes, and uploads the dataset (with
// the hash) only when the coordinator answers 404 with the code
// "datasetNotHeld" — or, from a coordinator that predates the field, 400
// "invalid dataset". The coordinator holds a dataset while a retained job
// names it: in memory, one copy per hash, while a job on it runs, and on
// a durable coordinator in its pack store until the last job naming the
// hash is evicted.
//
// Request bodies are bounded per route (maxLeaseBody, maxRenewBody,
// maxDoneBody, maxFailBody, maxEmptyBody; submissions by
// maxSubmitBody); a longer one answers 413. Every non-2xx answer is the
// uniform {"error": "..."} body.
//
// A Coordinator built by Recover additionally journals every state
// transition to a write-ahead log under Config.StateDir (see
// durable.go), so a crashed coordinator restarted on the same state
// directory resumes its jobs with exactly-once semantics: completed
// tiles are never re-executed and the merged Report is bit-exact with
// an uninterrupted run.
//
// Client implements trigene.RemoteExecutor, so
// Session.Search(ctx, trigene.WithCluster(client)) runs any search on
// the cluster without changing the public API's shape. The trigened
// binary fronts all three roles (serve / worker / submit-status-result).
package cluster

import (
	"encoding/json"

	"trigene"
)

// Job states reported in JobStatus.State.
const (
	// StateRunning: tiles are pending or leased.
	StateRunning = "running"
	// StateDone: every tile completed; the merged result is retained.
	StateDone = "done"
	// StateFailed: a worker reported a deterministic execution error,
	// or a tile exhausted its re-issue attempts.
	StateFailed = "failed"
	// StateCancelled: cancelled by request; outstanding leases die.
	StateCancelled = "cancelled"
)

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Name optionally labels the job for humans; it need not be unique.
	Name string `json:"name,omitempty"`
	// Spec is the search configuration every tile executes.
	Spec trigene.SearchSpec `json:"spec"`
	// Tiles is how many lease units the space is cut into (≥ 1). For a
	// screened job (Spec.Screen set, survivors not pinned) this counts
	// the stage-2 tiles; the stage-1 pair scan is leased as its own
	// ScreenTiles units ahead of them.
	Tiles int `json:"tiles"`
	// ScreenTiles is how many shards the stage-1 pair scan of a screened
	// job is cut into (0 = same as Tiles). Ignored for unscreened jobs
	// and for specs with pinned survivors.
	ScreenTiles int `json:"screenTiles,omitempty"`
	// DatasetSHA256 names the dataset by its content hash
	// (Session.DatasetHash: 64 lowercase hex characters). Sent without
	// Dataset, it submits by reference: the coordinator runs the job on
	// the dataset it already holds under that hash (a running job's, or
	// on a durable coordinator a retained job's pack), and answers 404
	// with the error code "datasetNotHeld" when it holds none, after
	// which the client repeats the request with Dataset. Sent with
	// Dataset, the upload must hash to it (400 otherwise).
	DatasetSHA256 string `json:"datasetSHA256,omitempty"`
	// Dataset is the dataset in the trigene binary format or the
	// packed .tpack format (base64 in JSON). The coordinator holds and
	// serves it packed either way, packing a binary submission once, so
	// workers read only .tpack. A request sets Dataset, DatasetSHA256 or
	// both.
	Dataset []byte `json:"dataset,omitempty"`
}

// SubmitResponse is the body answering POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	Tiles int    `json:"tiles"`
}

// JobStatus is one job's public state.
type JobStatus struct {
	ID    string             `json:"id"`
	Name  string             `json:"name,omitempty"`
	State string             `json:"state"`
	Spec  trigene.SearchSpec `json:"spec"`
	// SNPs and Samples describe the job's dataset.
	SNPs    int `json:"snps"`
	Samples int `json:"samples"`
	// Tiles, Done and Leased count lease units: total, completed, and
	// currently under an unexpired lease. A screened job's units are its
	// ScreenTiles stage-1 shards followed by the stage-2 tiles.
	Tiles  int `json:"tiles"`
	Done   int `json:"done"`
	Leased int `json:"leased"`
	// ScreenTiles and ScreenDone track the stage-1 phase of a screened
	// job (both 0 for unscreened jobs); stage 2 is granted only once
	// ScreenDone reaches ScreenTiles and the survivor set is pinned.
	ScreenTiles int `json:"screenTiles,omitempty"`
	ScreenDone  int `json:"screenDone,omitempty"`
	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
	// SubmittedUnixMs and DurationMs time the job: submission instant
	// and, once finished, submit-to-finish wall time.
	SubmittedUnixMs int64   `json:"submittedUnixMs"`
	DurationMs      float64 `json:"durationMs,omitempty"`
}

// JobList is the body answering GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	// Worker identifies the requester in statuses and logs.
	Worker string `json:"worker"`
	// Capacity is the worker's advertised relative capability (cores,
	// an operator-assigned weight, ...; 0 = 1). The coordinator sizes
	// lease batches by it until measured throughput takes over.
	Capacity float64 `json:"capacity,omitempty"`
	// TilesPerSec is the worker's own measured recent tile throughput
	// (0 = none yet). Once every registered worker reports one, the
	// measured rates replace advertised capacities as lease weights.
	TilesPerSec float64 `json:"tilesPerSec,omitempty"`
	// WaitMillis asks the coordinator to park the request for up to that
	// long when nothing is grantable, and to answer as soon as something
	// is (a submission, a released lease, a screened job's stage 2
	// opening) instead of 204 at once. A coordinator that predates it
	// answers at once, and the worker sleeps out the rest of its poll.
	WaitMillis int64 `json:"waitMillis,omitempty"`
}

// LeaseGrant is the body answering POST /v1/lease: tiles of one job,
// each to be executed as Search(spec.Options()..., WithShard(Tile,
// Tiles)) and completed — under heartbeat renewal every TTL/3 or so —
// at /v1/lease/{token}/done.
type LeaseGrant struct {
	// Token names the lease in renew/done/fail calls. Opaque.
	Token string `json:"token"`
	// Job is the job the tile belongs to; its dataset is at
	// /v1/jobs/{job}/dataset.
	Job string `json:"job"`
	// DatasetSHA256 is the hex SHA-256 content hash of the job's
	// dataset (the encoded-dataset store's identity, format
	// independent). Workers key their per-job Session caches on it (job
	// IDs restart from j1 with the coordinator, a fingerprint never
	// aliases) and verify the fetched dataset against it.
	DatasetSHA256 string `json:"datasetSha256"`
	// Spec is the job's search configuration.
	Spec trigene.SearchSpec `json:"spec"`
	// Tile and Tiles are the shard coordinates to execute.
	Tile  int `json:"tile"`
	Tiles int `json:"tiles"`
	// Stage marks the phase of a two-phase screened job: "screen" grants
	// execute Session.ScreenStage1 over shard (Tile−StageBase) of
	// StageCount and post ScreenScores; empty grants execute an ordinary
	// sharded Search. A batch never mixes stages.
	Stage string `json:"stage,omitempty"`
	// StageBase and StageCount locate this grant's phase inside the
	// job's lease-unit space: the phase's first tile index and its tile
	// count. Zero StageCount means the whole space is one phase (every
	// unscreened job) and Tile/Tiles are the shard coordinates directly.
	StageBase  int `json:"stageBase,omitempty"`
	StageCount int `json:"stageCount,omitempty"`
	// Granted lists every tile of this grant (its size is the worker's
	// guided share of the tiles still unleased); Granted[0] always
	// mirrors Token/Tile. Empty means the single Token/Tile lease.
	// Each tile is executed, heartbeat-renewed and completed under its
	// own token, so exactly-once accounting is untouched.
	Granted []TileGrant `json:"granted,omitempty"`
	// TTLMillis is the lease duration; renew well before it elapses.
	TTLMillis int64 `json:"ttlMillis"`
	// Batch says the coordinator reads "more" on done and renew requests
	// and answers per token; a worker batches only when it is set.
	Batch bool `json:"batch,omitempty"`
	// BinaryReports says the coordinator reads a search tile's Report in
	// the binary form too (a JSON string holding the base64 of
	// Report.MarshalBinary); a worker posts that form only when it is
	// set, and the JSON object otherwise.
	BinaryReports bool `json:"binaryReports,omitempty"`
}

// TileGrant is one tile of a (possibly batched) lease grant.
type TileGrant struct {
	Token string `json:"token"`
	Tile  int    `json:"tile"`
}

// RenewRequest is the optional body of POST /v1/lease/{token}/renew:
// heartbeats double as capability reports, so the coordinator's view
// of a worker's throughput stays fresh while it computes. An empty
// body is accepted (older workers).
type RenewRequest struct {
	Worker      string  `json:"worker,omitempty"`
	TilesPerSec float64 `json:"tilesPerSec,omitempty"`
	// More lists further tokens to renew along with the path's.
	More []string `json:"more,omitempty"`
}

// RenewResponse is the body answering a renewal that carried More: the
// tokens among the path's and More's that are no longer current. (A
// renewal of one token answers 410 instead when that token is lost.)
type RenewResponse struct {
	Lost []string `json:"lost,omitempty"`
}

// WorkerStatus is one worker's entry in the coordinator's capability
// registry, built from lease requests and heartbeats.
type WorkerStatus struct {
	ID string `json:"id"`
	// Capacity is the advertised relative weight; TilesPerSec the
	// worker's last reported measured throughput (0 = none yet).
	Capacity    float64 `json:"capacity"`
	TilesPerSec float64 `json:"tilesPerSec,omitempty"`
	// Granted and Completed count tiles over the worker's lifetime.
	Granted   int `json:"granted"`
	Completed int `json:"completed"`
	// LastSeenUnixMs is the instant of the worker's last request;
	// AgeMs is how long ago that was at response time.
	LastSeenUnixMs int64 `json:"lastSeenUnixMs"`
	AgeMs          int64 `json:"ageMs"`
	// Stale means the worker has been silent past the staleness window
	// (4×LeaseTTL): it no longer influences weighted lease sizing and
	// is presumed dead.
	Stale bool `json:"stale,omitempty"`
	// Draining means the worker announced it is leaving: it finishes
	// the leases it holds but is granted nothing new.
	Draining bool `json:"draining,omitempty"`
}

// WorkerList is the body answering GET /v1/workers.
type WorkerList struct {
	Workers []WorkerStatus `json:"workers"`
}

// CompleteRequest is the body of POST /v1/lease/{token}/done: the
// result of the path token's tile, and in More the results of other
// tiles the worker finished while its previous request was in flight.
type CompleteRequest struct {
	// Report is the tile's Report (search tiles): the stable JSON
	// object, or, under a grant that says BinaryReports, a JSON string
	// holding the base64 of Report.MarshalBinary.
	Report json.RawMessage `json:"report,omitempty"`
	// Screen is the tile's ScreenScores (stage-1 tiles of a screened
	// job); Perm the tile's PermScores (permutation jobs). Exactly one
	// of Report, Screen and Perm is set.
	Screen json.RawMessage `json:"screen,omitempty"`
	Perm   json.RawMessage `json:"perm,omitempty"`
	// More carries further results, each under its own token. Only sent
	// to a coordinator whose grants say Batch.
	More []TileResult `json:"more,omitempty"`
}

// TileResult is one finished tile in wire form: its lease token and the
// payload its stage posts (exactly one of Report, Screen and Perm).
type TileResult struct {
	Token  string          `json:"token"`
	Report json.RawMessage `json:"report,omitempty"`
	Screen json.RawMessage `json:"screen,omitempty"`
	Perm   json.RawMessage `json:"perm,omitempty"`
}

// Verdicts on one posted tile result (TileStatus.Status).
const (
	// TileAccepted: first result of the tile; it counts, durably.
	TileAccepted = "accepted"
	// TileDiscarded: the tile was already completed, or a re-issued
	// lease owns it (exactly-once accounting keeps the first result).
	TileDiscarded = "discarded"
	// TileGone: the lease was never granted or its job is not running;
	// the holder gives the tile up.
	TileGone = "gone"
	// TileInvalid: the payload does not decode or does not fit the job.
	TileInvalid = "invalid"
)

// TileStatus is the coordinator's verdict on one posted tile result.
type TileStatus struct {
	Token  string `json:"token"`
	Status string `json:"status"`
	// Error says why, for gone and invalid results.
	Error string `json:"error,omitempty"`
}

// CompleteResponse is the body answering a completion.
type CompleteResponse struct {
	// Accepted is the path token's verdict: false when the result was
	// discarded — the tile was already completed under a re-issued
	// lease (exactly-once accounting keeps the first result).
	Accepted bool `json:"accepted"`
	// Results is the verdict on every token of the request, the path
	// token's first, then More's in order.
	Results []TileStatus `json:"results,omitempty"`
}

// FailRequest is the body of POST /v1/lease/{token}/fail: a
// deterministic execution error (bad spec for the dataset, order
// unsupported by the backend, ...) that retrying on another worker
// cannot fix, so it fails the whole job.
type FailRequest struct {
	Error string `json:"error"`
}

// LeaveResponse is the body answering POST /v1/workers/{id}/leave.
type LeaveResponse struct {
	// Released counts the leases freed for immediate re-issue.
	Released int `json:"released"`
}

// errorBody is the JSON shape of every non-2xx response. Code types
// the refusals a client acts on; it is empty on every other error.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// codeDatasetNotHeld types the answer (404) to a submission by
// reference whose dataset the coordinator does not hold.
const codeDatasetNotHeld = "datasetNotHeld"
