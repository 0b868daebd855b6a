package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trigene"
	"trigene/internal/dataset"
	"trigene/internal/engine"
)

// Client talks to a Coordinator. It is safe for concurrent use and
// implements trigene.RemoteExecutor, so
//
//	sess.Search(ctx, trigene.WithCluster(cluster.NewClient(url)))
//
// runs the search on the cluster.
type Client struct {
	// BaseURL is the coordinator's root, e.g. "http://host:9321".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Tiles is how many lease units ExecuteSearch cuts a submitted
	// search into (default 16) — more tiles mean finer re-issue
	// granularity and better balance across heterogeneous workers, at
	// more wire round-trips.
	Tiles int
	// Poll is the job-status polling interval of Wait (default 150ms): how
	// long one status request stays parked at the coordinator before it
	// answers "still running", and the sleep between requests against a
	// coordinator that does not park them.
	Poll time.Duration
}

// NewClient returns a Client for the coordinator at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Name implements trigene.RemoteExecutor.
func (c *Client) Name() string { return "cluster(" + c.BaseURL + ")" }

// ExecuteSearch implements trigene.RemoteExecutor: submit (the dataset
// by content hash, uploaded only when the coordinator does not hold
// it), wait, fetch the merged Report.
func (c *Client) ExecuteSearch(ctx context.Context, mx *trigene.Matrix, spec trigene.SearchSpec) (*trigene.Report, error) {
	tiles := c.Tiles
	if tiles <= 0 {
		tiles = 16
	}
	id, err := c.Submit(ctx, mx, spec, tiles, "")
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id)
}

// ExecutePerm implements trigene.PermExecutor: submit the permutation
// job (spec.Perm set) as Submit does, wait, fetch the Report whose Perm
// block carries the merged hit counts. After a search of the same
// dataset a durable coordinator still holds it (in its pack store), and
// the job goes out without the dataset's bytes. The tile count is
// clamped to the permutation count so every leased range is non-empty.
func (c *Client) ExecutePerm(ctx context.Context, mx *trigene.Matrix, spec trigene.SearchSpec) (*trigene.Report, error) {
	if spec.Perm == nil {
		return nil, fmt.Errorf("cluster: ExecutePerm requires a spec with Perm set")
	}
	tiles := c.Tiles
	if tiles <= 0 {
		tiles = 16
	}
	if p := spec.Perm.PermutationCount(); tiles > p {
		tiles = p
	}
	id, err := c.Submit(ctx, mx, spec, tiles, "")
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id)
}

// Submit submits a search spec over a dataset as a new job cut into
// the given number of tiles, returning the job ID. It names the dataset
// by its content hash first and uploads it — in the trigene binary
// format — only when the coordinator does not hold it already, so a
// dataset crosses the wire once while the coordinator holds it (see
// SubmitRequest.DatasetSHA256). Naming it costs one validate-and-pack
// pass over the genotypes streamed into SHA-256 (dataset.HashMatrix), not
// a Session: a matrix a Session would refuse — fewer than 3 SNPs, a value
// out of range, one phenotype class only — is refused with
// "invalid dataset: " and that Session's error before any request is
// sent.
func (c *Client) Submit(ctx context.Context, mx *trigene.Matrix, spec trigene.SearchSpec, tiles int, name string) (string, error) {
	if err := engine.CheckSNPs(mx.SNPs()); err != nil {
		return "", fmt.Errorf("invalid dataset: %w", err)
	}
	hash, err := dataset.HashMatrix(mx)
	if err != nil {
		return "", fmt.Errorf("invalid dataset: %w", err)
	}
	return c.submit(ctx, SubmitRequest{Name: name, Spec: spec, Tiles: tiles, DatasetSHA256: hash},
		func(w io.Writer) error { return trigene.WriteBinary(w, mx) })
}

// SubmitSession submits a search spec over a session's dataset as a new
// job cut into the given number of tiles, returning the job ID. Like
// Submit it names the dataset by content hash first; when the
// coordinator does not hold it, it uploads it in the packed .tpack form —
// exact for sessions opened from a pack, and sparing the coordinator the
// one-time encode either way.
func (c *Client) SubmitSession(ctx context.Context, sess *trigene.Session, spec trigene.SearchSpec, tiles int, name string) (string, error) {
	return c.submit(ctx, SubmitRequest{Name: name, Spec: spec, Tiles: tiles, DatasetSHA256: sess.DatasetHash()},
		sess.WritePack)
}

// submit posts req, which names its dataset by hash only, and on the
// coordinator's "dataset not held" answer posts it again with the bytes
// write produces. A coordinator that predates submission by reference
// answers a request without bytes 400 "invalid dataset: ..."; that
// answer also sends the bytes.
func (c *Client) submit(ctx context.Context, req SubmitRequest, write func(io.Writer) error) (string, error) {
	var resp SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &resp)
	var se *statusError
	if errors.As(err, &se) && (se.kind == codeDatasetNotHeld ||
		se.code == http.StatusBadRequest && strings.HasPrefix(se.msg, "invalid dataset:")) {
		var data bytes.Buffer
		if err := write(&data); err != nil {
			return "", fmt.Errorf("serializing dataset: %w", err)
		}
		req.Dataset = data.Bytes()
		err = c.do(ctx, http.MethodPost, "/v1/jobs", req, &resp)
	}
	if err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Jobs lists every job the coordinator retains, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var list JobList
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &list); err != nil {
		return nil, err
	}
	return list.Jobs, nil
}

// Status returns one job's status.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result returns the merged Report of a finished job. It fails while
// the job is still running; use Wait to block.
func (c *Client) Result(ctx context.Context, id string) (*trigene.Report, error) {
	var rep trigene.Report
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Cancel cancels a running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", struct{}{}, nil)
}

// Wait blocks until the job finishes, then returns its merged Report
// (or the job's failure as an error). Each status request asks the
// coordinator to park it until the job leaves "running" (waitMillis =
// Poll), so the finish is seen the moment it is durable; a coordinator
// that predates waitMillis answers at once, and Wait sleeps out the
// rest of the interval itself.
func (c *Client) Wait(ctx context.Context, id string) (*trigene.Report, error) {
	poll := c.Poll
	if poll <= 0 {
		poll = 150 * time.Millisecond
	}
	path := "/v1/jobs/" + id + "?waitMillis=" + strconv.FormatInt(poll.Milliseconds(), 10)
	for {
		asked := time.Now()
		var st JobStatus
		if err := c.do(ctx, http.MethodGet, path, nil, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case StateDone:
			return c.Result(ctx, id)
		case StateFailed, StateCancelled:
			return nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll - time.Since(asked)):
		}
	}
}

// Workers lists the coordinator's per-worker capability registry
// (advertised capacity, reported throughput, grant/completion counts).
func (c *Client) Workers(ctx context.Context) ([]WorkerStatus, error) {
	var list WorkerList
	if err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &list); err != nil {
		return nil, err
	}
	return list.Workers, nil
}

// Drain marks a worker as draining: the coordinator grants it no new
// leases while it finishes what it holds. Workers announce their own
// drain; operators can also call it to take a worker out of rotation.
func (c *Client) Drain(ctx context.Context, workerID string) error {
	return c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/drain", struct{}{}, nil)
}

// Leave deregisters a worker, releasing every lease it still holds so
// its tiles re-issue immediately instead of idling until TTL expiry.
// It returns how many leases were released.
func (c *Client) Leave(ctx context.Context, workerID string) (int, error) {
	var resp LeaveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/leave", struct{}{}, &resp); err != nil {
		return 0, err
	}
	return resp.Released, nil
}

// dataset fetches a job's raw dataset bytes (workers verify them
// against the lease grant's fingerprint before parsing).
func (c *Client) dataset(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/dataset", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// lease asks for a tile batch, advertising the worker's capability;
// ok is false when the coordinator has no work.
func (c *Client) lease(ctx context.Context, lr LeaseRequest) (LeaseGrant, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/lease", jsonBody(lr))
	if err != nil {
		return LeaseGrant{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return LeaseGrant{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return LeaseGrant{}, false, nil
	case http.StatusOK:
		var grant LeaseGrant
		if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
			return LeaseGrant{}, false, err
		}
		return grant, true, nil
	default:
		return LeaseGrant{}, false, decodeError(resp)
	}
}

// renew heartbeats every given lease in one request, carrying the
// worker's current capability report, and returns the tokens the
// coordinator no longer honors. More than one token may only be sent to
// a coordinator whose grants say Batch.
func (c *Client) renew(ctx context.Context, tokens []string, rr RenewRequest) (lost []string, err error) {
	rr.More = tokens[1:]
	var resp RenewResponse
	err = c.do(ctx, http.MethodPost, "/v1/lease/"+tokens[0]+"/renew", rr, &resp)
	if errors.Is(leaseLostOr(err), errLeaseLost) {
		// The answer to a renewal of one token that is lost.
		return tokens[:1], nil
	}
	return resp.Lost, err
}

// done posts finished tile results in one request — the first under its
// token's path, the rest as More — and returns the coordinator's verdict
// on each, in order. More than one result may only be sent to a
// coordinator whose grants say Batch; should one that ignores More
// answer anyway, the verdicts cover the first result alone and the
// caller posts the rest again. An error means no verdict was given
// (transport failure, 5xx) and the same request may be retried.
func (c *Client) done(ctx context.Context, results []TileResult) ([]TileStatus, error) {
	first := results[0]
	var resp CompleteResponse
	err := c.do(ctx, http.MethodPost, "/v1/lease/"+first.Token+"/done",
		CompleteRequest{Report: first.Report, Screen: first.Screen, Perm: first.Perm, More: results[1:]}, &resp)
	var se *statusError
	switch {
	case err == nil && len(resp.Results) == len(results):
		return resp.Results, nil
	case err == nil:
		status := TileDiscarded
		if resp.Accepted {
			status = TileAccepted
		}
		return []TileStatus{{Token: first.Token, Status: status}}, nil
	case !errors.As(err, &se) || se.code >= 500:
		return nil, err
	case se.code == http.StatusGone:
		return []TileStatus{{Token: first.Token, Status: TileGone, Error: se.msg}}, nil
	default:
		// Any other 4xx refuses the request as it stands (a payload that
		// does not decode, a body past the bound): retrying cannot help.
		verdicts := make([]TileStatus, len(results))
		for i, res := range results {
			verdicts[i] = TileStatus{Token: res.Token, Status: TileInvalid, Error: se.msg}
		}
		return verdicts, nil
	}
}

// fail reports a deterministic tile failure (fails the job).
func (c *Client) fail(ctx context.Context, token, msg string) error {
	err := c.do(ctx, http.MethodPost, "/v1/lease/"+token+"/fail", FailRequest{Error: msg}, nil)
	return leaseLostOr(err)
}

// statusError is a non-2xx coordinator answer; kind is the error body's
// code, if any.
type statusError struct {
	code int
	msg  string
	kind string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("coordinator: %s (HTTP %d)", e.msg, e.code)
}

// errLeaseLost marks a lease the coordinator no longer honors: the
// holder abandons the tile (someone else owns it now).
var errLeaseLost = fmt.Errorf("cluster: lease lost")

// leaseLostOr maps 410 Gone onto errLeaseLost.
func leaseLostOr(err error) error {
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusGone {
		return errLeaseLost
	}
	return err
}

// do performs one JSON request; a nil out discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		body = jsonBody(in)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// jsonBody marshals v for a request body (marshal errors surface as
// request errors through the failed read).
func jsonBody(v any) io.Reader {
	raw, err := json.Marshal(v)
	if err != nil {
		return &failingReader{err: err}
	}
	return bytes.NewReader(raw)
}

type failingReader struct{ err error }

func (f *failingReader) Read([]byte) (int, error) { return 0, f.err }

// decodeError turns a non-2xx response into a *statusError, using the
// uniform error body when present.
func decodeError(resp *http.Response) error {
	var eb errorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		return &statusError{code: resp.StatusCode, msg: eb.Error, kind: eb.Code}
	}
	return &statusError{code: resp.StatusCode, msg: strings.TrimSpace(string(raw))}
}
