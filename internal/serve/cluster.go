package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"netsmith/internal/sim"
)

// Cluster mode: a matrix or pareto job with shards > 1 does not
// execute in the coordinator's job runner. Instead the runner registers
// a clusterRun — one lease slot per Shard{i,n} slice — and waits.
// Worker processes (RunWorker) poll POST /v1/cluster/claim, execute
// their slice cache-first against the shared store, heartbeat to keep
// the lease alive, and POST /v1/cluster/complete. A lease whose
// heartbeats stop (killed worker) expires and is re-offered; because
// every finished unit is already content-addressed in the store
// (matrix cells, synthesis results), the new claimant re-simulates
// only what the dead worker never persisted. When all shards report,
// the runner hands their tally to the plan's finish — the same
// unsharded cache-first run a local job makes, over the warm store —
// so the result is byte-identical to a single-process run.
//
// The protocol is deliberately coordinator-centric: workers keep no
// state but the lease in hand, so killing one at any instant loses at
// most its in-flight cells.

// shard lease states.
const (
	shardPending = iota
	shardLeased
	shardDone
)

// shardState tracks one lease slot; guarded by Server.mu.
type shardState struct {
	index   int
	state   int
	worker  string
	leaseID string
	expires time.Time
	offered time.Time // when the slot became claimable (self-work grace anchor)
	done    int       // progress units per the last heartbeat/completion
}

func (ss *shardState) stateName(now time.Time) string {
	switch {
	case ss.state == shardDone:
		return "done"
	case ss.state == shardLeased && now.After(ss.expires):
		return "expired"
	case ss.state == shardLeased:
		return "leased"
	default:
		return "pending"
	}
}

// clusterRun is the coordinator-side record of one sharded job;
// guarded by Server.mu except for the immutable fields.
type clusterRun struct {
	jobID   string
	job     *job
	kind    string          // kind-table key, sent with every lease
	plan    plan            // the coordinator's plan of reqJSON
	reqJSON json.RawMessage // the validated request bytes, sent with every lease

	shards  []shardState
	doneN   int
	tally   shardTally
	failure string

	finished chan struct{} // closed when all shards done, a shard fails, or the job dies
	closed   bool
}

func (cr *clusterRun) closeLocked() {
	if !cr.closed {
		cr.closed = true
		close(cr.finished)
	}
}

// activeLocked reports whether the run still accepts leases and
// reports.
func (cr *clusterRun) activeLocked() bool {
	return !cr.closed && cr.failure == "" && !cr.job.cancelled
}

// ---- lease wire types ----

// ClaimRequest is the POST /v1/cluster/claim body.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// Lease grants one job shard to a worker: execute Request with
// Shard{Index: Shard, Count: Of} against the shared store, heartbeat
// well inside TTLMS, then complete. Kind names the job kind whose
// table entry decodes Request.
type Lease struct {
	LeaseID string          `json:"lease_id"`
	JobID   string          `json:"job_id"`
	Kind    string          `json:"kind,omitempty"` // "matrix" | "pareto"
	Shard   int             `json:"shard"`
	Of      int             `json:"of"`
	TTLMS   int64           `json:"ttl_ms"`
	Request json.RawMessage `json:"request"` // MatrixRequest or ParetoRequest JSON
}

// HeartbeatRequest is the POST /v1/cluster/heartbeat body; Done is the
// worker's resolved-cell count so far (feeds job progress).
type HeartbeatRequest struct {
	JobID   string `json:"job_id"`
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
	Done    int    `json:"done"`
}

// CompleteRequest is the POST /v1/cluster/complete body. A non-empty
// Error fails the whole job (validation and store failures are
// deterministic — another worker would fail identically); crashes
// should simply stop heartbeating and let the lease expire instead.
type CompleteRequest struct {
	JobID       string          `json:"job_id"`
	LeaseID     string          `json:"lease_id"`
	Worker      string          `json:"worker"`
	Error       string          `json:"error,omitempty"`
	Stats       sim.MatrixStats `json:"stats"`
	SynthCached bool            `json:"synth_cached"`
	// PointsSynthesized counts pareto sweep points this shard actually
	// searched (0 for matrix shards and fully cached sweeps).
	PointsSynthesized int   `json:"points_synthesized,omitempty"`
	ElapsedMS         int64 `json:"elapsed_ms"`
}

// checkCounts rejects numbers no shard can report: negative, or so
// large that summing a job's completions could wrap.
func (c *CompleteRequest) checkCounts() error {
	for _, n := range []int64{int64(c.Stats.Cells), int64(c.Stats.Computed), int64(c.Stats.CacheHits),
		int64(c.Stats.StoreErrors), int64(c.PointsSynthesized), c.ElapsedMS} {
		if n < 0 || n > math.MaxInt32 {
			return fmt.Errorf("count %d outside [0, %d]", n, math.MaxInt32)
		}
	}
	return nil
}

// ---- claim/heartbeat/complete core (shared by HTTP handlers and
// coordinator self-work) ----

// claimFromLocked grants an eligible shard of cr: a pending slot older
// than minAge, or a leased slot whose heartbeats stopped a TTL ago.
// Caller holds s.mu.
func (s *Server) claimFromLocked(cr *clusterRun, worker string, now time.Time, minAge time.Duration) *Lease {
	if !cr.activeLocked() {
		return nil
	}
	for i := range cr.shards {
		ss := &cr.shards[i]
		eligible := (ss.state == shardPending && now.Sub(ss.offered) >= minAge) ||
			(ss.state == shardLeased && now.After(ss.expires))
		if !eligible {
			continue
		}
		s.leaseSeq++
		ss.state = shardLeased
		ss.worker = worker
		ss.leaseID = fmt.Sprintf("L%06d", s.leaseSeq)
		ss.expires = now.Add(s.cfg.LeaseTTL)
		return &Lease{
			LeaseID: ss.leaseID, JobID: cr.jobID, Kind: cr.kind,
			Shard: ss.index, Of: len(cr.shards),
			TTLMS: s.cfg.LeaseTTL.Milliseconds(), Request: cr.reqJSON,
		}
	}
	return nil
}

// claimAnyLocked scans cluster runs in job-arrival order. Caller holds
// s.mu.
func (s *Server) claimAnyLocked(worker string, now time.Time, minAge time.Duration) *Lease {
	runs := make([]*clusterRun, 0, len(s.clusters))
	for _, cr := range s.clusters {
		runs = append(runs, cr)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].job.seq < runs[j].job.seq })
	for _, cr := range runs {
		if lease := s.claimFromLocked(cr, worker, now, minAge); lease != nil {
			return lease
		}
	}
	return nil
}

// leaseShardLocked resolves a (job, lease) pair to its shard slot if
// the lease is still the live one; a stolen or completed lease returns
// nil so the stale holder stands down.
func (s *Server) leaseShardLocked(jobID, leaseID string) (*clusterRun, *shardState) {
	cr, ok := s.clusters[jobID]
	if !ok || !cr.activeLocked() {
		return nil, nil
	}
	for i := range cr.shards {
		ss := &cr.shards[i]
		if ss.state == shardLeased && ss.leaseID == leaseID {
			return cr, ss
		}
	}
	return nil, nil
}

// heartbeatLease extends a lease and folds the worker's progress into
// the job envelope; false means the lease is gone (expired and
// re-stolen, job cancelled, or cluster finished) and the holder must
// abandon the shard.
func (s *Server) heartbeatLease(hb HeartbeatRequest) bool {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if hb.Worker != "" {
		s.workersSeen[hb.Worker] = now
	}
	cr, ss := s.leaseShardLocked(hb.JobID, hb.LeaseID)
	if cr == nil {
		return false
	}
	ss.expires = now.Add(s.cfg.LeaseTTL)
	if hb.Done > ss.done {
		ss.done = min(hb.Done, cr.plan.units())
	}
	s.clusterProgressLocked(cr)
	return true
}

// clusterProgressLocked refreshes the job's progress counter from the
// shard heartbeat/done tallies. Shard counts can overlap (a shard's
// merge attempt reads other shards' cells), so clamp. Caller holds
// s.mu.
func (s *Server) clusterProgressLocked(cr *clusterRun) {
	sum := 0
	for i := range cr.shards {
		sum += cr.shards[i].done
	}
	sum = min(sum, cr.plan.units())
	if sum > cr.job.progressDone {
		cr.job.progressDone = sum
	}
	cr.job.progressTotal = cr.plan.units()
}

// completeLease records a shard outcome; false means the lease was no
// longer live (the result is still fine — its cells are in the store —
// but the slot already moved on).
func (s *Server) completeLease(req CompleteRequest) bool {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Worker != "" {
		s.workersSeen[req.Worker] = now
	}
	cr, ss := s.leaseShardLocked(req.JobID, req.LeaseID)
	if cr == nil {
		return false
	}
	if req.Error != "" {
		cr.failure = fmt.Sprintf("shard %d/%d (worker %s): %s", ss.index, len(cr.shards), req.Worker, req.Error)
		cr.closeLocked()
		return true
	}
	ss.state = shardDone
	ss.done = max(ss.done, cr.plan.shardDone(req.Stats))
	cr.doneN++
	cr.tally.computed += req.Stats.Computed
	cr.tally.storeErrs += req.Stats.StoreErrors
	cr.tally.pointsSynth += req.PointsSynthesized
	cr.tally.synthSearched = cr.tally.synthSearched || !req.SynthCached
	// Cache-hit cell accounting happens once at merge time (shard
	// CacheHits overlap across shards); computed cells are exact.
	s.stats.cellsComputed += int64(req.Stats.Computed)
	s.clusterProgressLocked(cr)
	if cr.doneN == len(cr.shards) {
		cr.closeLocked()
	}
	return true
}

// ---- HTTP handlers ----

func (s *Server) handleClusterClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad claim body: %v", err)
			return
		}
	}
	worker := defaultStr(req.Worker, clientKey(r))
	now := time.Now()
	s.mu.Lock()
	s.workersSeen[worker] = now
	lease := s.claimAnyLocked(worker, now, 0)
	s.mu.Unlock()
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if body, ok := readBody(w, r); !ok {
		return
	} else if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad heartbeat body: %v", err)
		return
	}
	if !s.heartbeatLease(req) {
		writeError(w, http.StatusGone, "lease_gone", "lease %s on job %s is no longer live", req.LeaseID, req.JobID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleClusterComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if body, ok := readBody(w, r); !ok {
		return
	} else if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad completion body: %v", err)
		return
	}
	if err := req.checkCounts(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad completion: %v", err)
		return
	}
	if !s.completeLease(req) {
		writeError(w, http.StatusGone, "lease_gone", "lease %s on job %s is no longer live", req.LeaseID, req.JobID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ---- the coordinator-side job runner ----

// shardReport is the successful outcome of one shard execution:
// matrix shards fill the cell stats; pareto shards also count the
// sweep points they synthesized.
type shardReport struct {
	stats       sim.MatrixStats
	pointsSynth int
	synthCached bool
}

// shardTally is what a cluster job's shards reported, handed to the
// plan's finish. The zero value is a local run: no shards, nothing
// done elsewhere.
type shardTally struct {
	shards        int
	computed      int // Σ shard computed cells
	storeErrs     int
	pointsSynth   int  // Σ shard pareto points synthesized
	synthSearched bool // some shard searched an "ns" topology
}

// runShards posts a sharded job's lease slots and waits for workers —
// picking up neglected shards itself unless self-work is disabled —
// until every shard has reported, and returns their tally.
func (s *Server) runShards(ctx context.Context, j *job, kind string, body []byte, p plan, shards int) (shardTally, error) {
	now := time.Now()
	cr := &clusterRun{
		jobID: j.id, job: j, kind: kind, plan: p, reqJSON: body,
		shards:   make([]shardState, shards),
		tally:    shardTally{shards: shards},
		finished: make(chan struct{}),
	}
	for i := range cr.shards {
		cr.shards[i] = shardState{index: i, offered: now}
	}
	s.mu.Lock()
	s.clusters[j.id] = cr
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		cr.closeLocked()
		delete(s.clusters, j.id)
		s.mu.Unlock()
	}()

	// Self-work cadence: often enough to steal an expired lease
	// promptly, bounded so short test TTLs don't spin.
	tick := time.NewTicker(max(s.cfg.LeaseTTL/4, 10*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			// Cancellation: close the run so in-flight workers' next
			// heartbeat answers 410 and they abandon the shard mid-cell.
			s.mu.Lock()
			cr.failure = "job cancelled"
			cr.closeLocked()
			s.mu.Unlock()
			return shardTally{}, ctx.Err()
		case <-cr.finished:
			s.mu.Lock()
			tally, failure := cr.tally, cr.failure
			s.mu.Unlock()
			if failure != "" {
				return shardTally{}, errors.New(failure)
			}
			return tally, nil
		case <-tick.C:
			if s.cfg.DisableSelfWork {
				continue
			}
			// External workers get a full lease TTL of first refusal on
			// virgin shards; expired leases are fair game immediately.
			s.mu.Lock()
			lease := s.claimFromLocked(cr, "coordinator", time.Now(), s.cfg.LeaseTTL)
			s.mu.Unlock()
			if lease != nil {
				executeLease(ctx, s.cfg.Store, "coordinator", lease,
					func(_ context.Context, hb HeartbeatRequest) bool { return s.heartbeatLease(hb) },
					func(c CompleteRequest) { s.completeLease(c) })
			}
		}
	}
}
