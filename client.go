package netsmith

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"netsmith/internal/serve"
	"netsmith/internal/sim"
	"netsmith/internal/store"
)

// Job and result shapes shared by the client and the HTTP API: a
// SynthJob/MatrixJob is exactly the wire body of a POST /v1/jobs
// request (minus the "kind" tag, which the Client adds), so the same
// value runs locally or remotely without translation.
type (
	// SynthJob describes one topology-synthesis job; zero values select
	// the paper defaults. See Options for the mapping from the
	// lower-level surface.
	SynthJob = serve.SynthRequest
	// SynthJobResult is a synthesis job's payload.
	SynthJobResult = serve.SynthResult
	// MatrixJob describes one scenario-matrix job; it mirrors the
	// netbench -matrix flags.
	MatrixJob = serve.MatrixRequest
	// MatrixJobOutcome is a matrix job's payload: the matrix plus the
	// simulated/cached cell split.
	MatrixJobOutcome = serve.MatrixJobResult
	// ParetoJob describes one Pareto-frontier sweep ({"kind":"pareto"}
	// on POST /v1/jobs): synthesize a topology per weight-grid point,
	// measure each, prune dominated points, report fleet-level energy
	// accounting.
	ParetoJob = serve.ParetoRequest
	// ParetoJobOutcome is a pareto job's payload: the frontier plus the
	// run's synthesis/cell cache accounting.
	ParetoJobOutcome = serve.ParetoJobResult
	// JobView is the canonical job envelope the HTTP API reports.
	JobView = serve.JobView
)

// Client executes synthesis and scenario-matrix jobs through a single
// call shape, either in-process ("local mode", the default) or against
// a `netsmith serve` coordinator over HTTP ("remote mode", WithServer).
// Both modes run the exact same validation and execution code — the
// serve package's request path — so a job moved from a laptop to a
// cluster returns byte-identical results.
//
// The zero-config client runs locally without a cache:
//
//	c, _ := netsmith.NewClient()
//	out, _, err := c.Matrix(ctx, netsmith.MatrixJob{Grid: "4x4"})
//
// Add WithStoreDir for content-addressed caching, or WithServer to
// dispatch to a cluster:
//
//	c, _ := netsmith.NewClient(netsmith.WithServer("http://coordinator:8080"))
type Client struct {
	server   string // "" = local
	st       *store.Store
	httpc    *http.Client
	poll     time.Duration
	priority int
	progress func(done, total int)
}

// ClientOption configures NewClient.
type ClientOption func(*Client) error

// WithServer switches the client to remote mode: jobs are POSTed to
// the coordinator at baseURL (e.g. "http://host:8080"), polled to
// completion, and cancelled server-side when the caller's context
// dies.
func WithServer(baseURL string) ClientOption {
	return func(c *Client) error {
		if baseURL == "" {
			return fmt.Errorf("netsmith: WithServer needs a base URL")
		}
		c.server = strings.TrimSuffix(baseURL, "/")
		return nil
	}
}

// WithStore attaches an open result store for local mode (remote mode
// uses the server's store).
func WithStore(st *Store) ClientOption {
	return func(c *Client) error { c.st = st; return nil }
}

// WithStoreDir opens (creating if needed) a result store at dir and
// attaches it; shorthand for OpenStore + WithStore.
func WithStoreDir(dir string) ClientOption {
	return func(c *Client) error {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		c.st = st
		return nil
	}
}

// WithPriority sets the job priority used in remote mode (higher runs
// first; negative-priority jobs are shed first under load). Local mode
// has no queue, so priority is a no-op there.
func WithPriority(p int) ClientOption {
	return func(c *Client) error { c.priority = p; return nil }
}

// WithPollInterval sets the remote-mode completion poll cadence
// (default 150ms).
func WithPollInterval(d time.Duration) ClientOption {
	return func(c *Client) error {
		if d <= 0 {
			return fmt.Errorf("netsmith: poll interval must be positive")
		}
		c.poll = d
		return nil
	}
}

// WithHTTPClient overrides the remote-mode HTTP client (default: 30s
// timeout per request).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) error { c.httpc = h; return nil }
}

// WithProgress registers a matrix progress callback: done of total
// cells resolved. Local mode reports per cell; remote mode reports at
// the poll cadence from the job envelope. Calls never overlap, and done
// never decreases within a job.
func WithProgress(fn func(done, total int)) ClientOption {
	return func(c *Client) error { c.progress = fn; return nil }
}

// NewClient builds a client; with no options it executes locally,
// uncached.
func NewClient(opts ...ClientOption) (*Client, error) {
	c := &Client{
		httpc: &http.Client{Timeout: 30 * time.Second},
		poll:  150 * time.Millisecond,
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Synth runs one synthesis job to completion. The bool reports a cache
// hit (the entire result came from the store).
func (c *Client) Synth(ctx context.Context, job SynthJob) (*SynthJobResult, bool, error) {
	if c.server == "" {
		return serve.ExecuteSynth(ctx, c.st, job)
	}
	var out SynthJobResult
	hit, err := c.remote(ctx, "synth", job, &out)
	if err != nil {
		return nil, false, err
	}
	return &out, hit, nil
}

// Matrix runs one scenario-matrix job to completion. In remote mode a
// job with Shards > 1 (or a coordinator-side default) fans out across
// the cluster's workers; either way the result is byte-identical to a
// local run. Cancellation is cell-granular: when ctx dies, a local run
// stops within one cell per pool worker, and a remote run is cancelled
// server-side (DELETE /v1/jobs/{id}). A job that sets Trace runs in
// local mode only.
func (c *Client) Matrix(ctx context.Context, job MatrixJob) (*MatrixJobOutcome, bool, error) {
	if c.server == "" {
		out, hit, err := serve.ExecuteMatrix(ctx, c.st, job, sim.Shard{}, monotone(c.progress))
		if err != nil {
			return nil, false, err
		}
		return out, hit, nil
	}
	if job.Trace != "" {
		return nil, false, errors.New("netsmith: trace replay runs in local mode only (a server never opens client files)")
	}
	var out MatrixJobOutcome
	hit, err := c.remote(ctx, "matrix", job, &out)
	if err != nil {
		return nil, false, err
	}
	return &out, hit, nil
}

// Pareto runs one Pareto-frontier sweep to completion. The bool
// reports that the sweep did no new work (the frontier itself — or
// every synthesis and matrix cell under it — came from the store).
// Frontier bytes are identical between local and remote mode, warm and
// cold store. Progress is reported in sweep units: one per synthesis
// point plus an equal measurement share.
func (c *Client) Pareto(ctx context.Context, job ParetoJob) (*ParetoJobOutcome, bool, error) {
	if c.server == "" {
		out, hit, err := serve.ExecutePareto(ctx, c.st, job, sim.Shard{}, monotone(c.progress))
		if err != nil {
			return nil, false, err
		}
		return out, hit, nil
	}
	var out ParetoJobOutcome
	hit, err := c.remote(ctx, "pareto", job, &out)
	if err != nil {
		return nil, false, err
	}
	return &out, hit, nil
}

// monotone adapts a progress callback so calls never overlap and done
// never regresses — RunMatrix invokes callbacks concurrently from its
// pool, so raw done values may arrive out of order. fn runs under the
// mutex: released before the call, a stale smaller done could still
// reach fn after a larger one. Remote mode needs no adapter: the
// server's job envelope already reports monotone progress.
func monotone(fn func(done, total int)) func(done, total int) {
	if fn == nil {
		return nil
	}
	var mu sync.Mutex
	best := 0
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done < best {
			done = best
		} else {
			best = done
		}
		fn(done, total)
	}
}

// remote POSTs the tagged job, polls it to a terminal state, and
// decodes the result payload into out.
func (c *Client) remote(ctx context.Context, kind string, job any, out any) (cacheHit bool, err error) {
	// Fold kind and priority into the request body.
	raw, err := json.Marshal(job)
	if err != nil {
		return false, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return false, err
	}
	fields["kind"], _ = json.Marshal(kind)
	if c.priority != 0 {
		fields["priority"], _ = json.Marshal(c.priority)
	}
	body, err := json.Marshal(fields)
	if err != nil {
		return false, err
	}

	var accepted JobView
	if err := c.call(ctx, http.MethodPost, c.server+"/v1/jobs", body, http.StatusAccepted, &accepted); err != nil {
		return false, err
	}
	id := accepted.ID
	t := time.NewTicker(c.poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			// Best-effort server-side cancellation frees the remote
			// worker slot (and revokes cluster shard leases).
			cancelCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = c.call(cancelCtx, http.MethodDelete, c.server+"/v1/jobs/"+id, nil, http.StatusOK, nil)
			cancel()
			return false, ctx.Err()
		case <-t.C:
		}
		var v JobView
		if err := c.call(ctx, http.MethodGet, c.server+"/v1/jobs/"+id, nil, http.StatusOK, &v); err != nil {
			return false, err
		}
		if c.progress != nil && v.Progress != nil {
			c.progress(v.Progress.Done, v.Progress.Total)
		}
		switch v.State {
		case serve.StateDone:
			return v.CacheHit, json.Unmarshal(v.Result, out)
		case serve.StateFailed, serve.StateCancelled:
			return false, fmt.Errorf("netsmith: job %s %s: %s", id, v.State, v.Error)
		}
	}
}

// call performs one HTTP exchange, decoding the API's error envelope
// into a useful error on unexpected statuses.
func (c *Client) call(ctx context.Context, method, url string, body []byte, wantStatus int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		var env serve.ErrorEnvelope
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			return fmt.Errorf("netsmith: %s %s: %s (%s)", method, url, env.Error.Message, env.Error.Code)
		}
		return fmt.Errorf("netsmith: %s %s: status %d", method, url, resp.StatusCode)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}
