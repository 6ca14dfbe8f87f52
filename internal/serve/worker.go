package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"netsmith/internal/sim"
	"netsmith/internal/store"
)

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g.
	// "http://127.0.0.1:8080"); required.
	Coordinator string
	// Store is the result store shared with the coordinator (same
	// directory on a shared filesystem); required. It is the data
	// plane: shard results travel through it, the lease protocol only
	// carries control traffic.
	Store *store.Store
	// Name identifies this worker in leases and liveness metrics
	// (default "worker-<hostname>-<pid>").
	Name string
	// Poll is the idle claim-poll interval (default 500ms).
	Poll time.Duration
	// Client is the HTTP client (default: 10s timeout).
	Client *http.Client
	// Logf, when set, receives one line per lease lifecycle event.
	Logf func(format string, args ...any)
}

// RunWorker runs the claim → execute → complete loop until ctx is
// cancelled (its only non-nil return is ctx.Err()). Coordinator
// outages are ridden out by polling — a worker is stateless between
// leases, so restarting either side at any instant is safe: at worst
// one lease expires and its unfinished cells are re-simulated by the
// next claimant.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Coordinator == "" {
		return fmt.Errorf("serve: WorkerConfig.Coordinator is required")
	}
	if cfg.Store == nil {
		return fmt.Errorf("serve: WorkerConfig.Store is required")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("worker-%s-%d", defaultStr(host, "unknown"), os.Getpid())
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	base := strings.TrimSuffix(cfg.Coordinator, "/")
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	heartbeat := func(shardCtx context.Context, hb HeartbeatRequest) bool {
		status, err := postJSON(shardCtx, cfg.Client, base+"/v1/cluster/heartbeat", hb, nil)
		if status == http.StatusGone {
			logf("lease %s: gone, abandoning shard", hb.LeaseID)
			return false
		}
		if err != nil && shardCtx.Err() == nil {
			// Transient coordinator hiccup: keep simulating; the next
			// beat may land before the lease expires, and losing the
			// lease only costs duplicate work.
			logf("heartbeat: %v", err)
		}
		return true
	}
	complete := func(comp CompleteRequest) {
		// Complete on the parent ctx: a lease-loss cancel must not block
		// a legitimate report.
		if _, err := postJSON(ctx, cfg.Client, base+"/v1/cluster/complete", comp, nil); err != nil {
			logf("complete: %v", err)
		} else if comp.Error == "" {
			logf("lease %s: done (%d computed, %d cached)", comp.LeaseID, comp.Stats.Computed, comp.Stats.CacheHits)
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := claimLease(ctx, cfg, base)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			logf("claim: %v", err)
			sleepCtx(ctx, cfg.Poll)
			continue
		}
		if lease == nil {
			sleepCtx(ctx, cfg.Poll)
			continue
		}
		logf("lease %s: job %s shard %d/%d", lease.LeaseID, lease.JobID, lease.Shard, lease.Of)
		executeLease(ctx, cfg.Store, cfg.Name, lease, heartbeat, complete)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// postJSON posts body and decodes a 2xx response into out (when
// non-nil); non-2xx statuses are returned for the caller to classify
// (410 Gone means "stand down", not "retry").
func postJSON(ctx context.Context, client *http.Client, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func claimLease(ctx context.Context, cfg WorkerConfig, base string) (*Lease, error) {
	var lease Lease
	status, err := postJSON(ctx, cfg.Client, base+"/v1/cluster/claim", ClaimRequest{Worker: cfg.Name}, &lease)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &lease, nil
}

// executeLease runs one shard lease, for a remote worker and for
// coordinator self-work alike: the kind table decodes and validates
// the request, the plan executes its owned slice cache-first into st
// while a heartbeat goroutine keeps the lease alive, and the outcome
// goes to complete. A heartbeat that answers false (lease stolen, job
// cancelled) cancels the shard context, so work stops within one cell
// and nothing is reported.
func executeLease(ctx context.Context, st *store.Store, worker string, lease *Lease,
	heartbeat func(context.Context, HeartbeatRequest) bool, complete func(CompleteRequest)) {
	comp := CompleteRequest{JobID: lease.JobID, LeaseID: lease.LeaseID, Worker: worker}
	p, err := decodeKind(lease.Kind, lease.Request)
	if err != nil {
		// The coordinator validated this request, so this is version
		// skew: deterministic, so report it (another worker would fail
		// identically).
		comp.Error = fmt.Sprintf("planning lease request: %v", err)
		complete(comp)
		return
	}

	shardCtx, cancel := context.WithCancel(ctx)
	var done atomic.Int64
	// A remote coordinator's ttl_ms is outside input: never tick at a
	// non-positive interval.
	hbEvery := time.Duration(lease.TTLMS) * time.Millisecond / 3
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				hb := HeartbeatRequest{JobID: lease.JobID, LeaseID: lease.LeaseID, Worker: worker, Done: int(done.Load())}
				if !heartbeat(shardCtx, hb) {
					cancel()
					return
				}
			}
		}
	}()
	defer func() {
		cancel()
		close(stop)
		<-stopped
	}()

	start := time.Now()
	rep, err := p.shard(shardCtx, st, sim.Shard{Index: lease.Shard, Count: lease.Of},
		func(d, _ int) { done.Store(int64(d)) })
	comp.ElapsedMS = time.Since(start).Milliseconds()
	switch {
	case rep == nil && shardCtx.Err() != nil:
		return // lease lost or shutting down: stand down silently
	case rep == nil:
		comp.Error = err.Error()
	default:
		comp.Stats, comp.SynthCached, comp.PointsSynthesized = rep.stats, rep.synthCached, rep.pointsSynth
	}
	complete(comp)
}
