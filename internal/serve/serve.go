// Package serve exposes topology synthesis and scenario-matrix
// simulation as an HTTP API with async job semantics, backed by the
// content-addressed result store, and scales it horizontally: one
// coordinator process accepts jobs through a unified /v1/jobs surface
// and splits matrix work into shard leases that any number of worker
// processes (RunWorker; `netsmith serve -worker`) claim, execute
// cache-first over the shared store, and report back. Because every
// unit of work is content-addressed (synthesis runs by config+seed,
// matrix cells by their canonical input hash), repeated requests
// re-simulate nothing, a killed worker's shard is safely re-stolen
// after its lease expires (finished cells are already in the store),
// and the coordinator's merged result is byte-identical to a
// single-process run.
//
// The v1 job surface:
//
//	POST   /v1/jobs             tagged body {"kind":"synth"|"matrix"|"pareto",...}
//	GET    /v1/jobs             list (pagination ?limit=&after=, ?state=)
//	GET    /v1/jobs/{id}        poll one job
//	DELETE /v1/jobs/{id}        cancel (stops a running matrix within a cell)
//	GET    /v1/jobs/{id}/events SSE stream of job state/progress changes
//	GET    /metrics             Prometheus-style text metrics
//	GET    /healthz             liveness + queue summary
//	POST   /v1/cluster/claim, /v1/cluster/heartbeat, /v1/cluster/complete
//	                            the shard-lease protocol (cluster.go)
//
// Every job kind is one entry in the kind table (requests.go), which
// decodes and validates a request into a plan; every execution path —
// a served job, an in-process Execute* call, a shard lease — runs it.
//
// Every error response uses one envelope: {"error":{"code","message"}}.
// Admission is priority-aware (negative-priority jobs shed first, with
// Retry-After) and per-client token-bucket rate limiting guards the
// POST surface.
//
// The package is transport and orchestration only. All simulation
// semantics live in internal/synth (CachedGenerate), internal/sim
// (store-backed, cancellable RunMatrix) and internal/store.
package serve

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"netsmith/internal/store"
)

// Config parameterizes a server.
type Config struct {
	// Store is the content-addressed result cache; required. Cluster
	// workers must point at the same directory (shared filesystem): it
	// is the data plane shard results travel through.
	Store *store.Store
	// Workers is the job pool size (default 2): at most this many
	// synthesis/matrix jobs execute concurrently. Each matrix job's
	// cells additionally fan out on the RunMatrix worker pool.
	Workers int
	// QueueDepth bounds the pending-job queue (default 32). A full
	// queue rejects new POSTs with 503 rather than buffering unbounded
	// work; above half depth, negative-priority jobs are shed early.
	QueueDepth int
	// MaxJobs bounds the job registry (default 1000). When a new job
	// would exceed it, the oldest finished jobs are evicted (their
	// results live on in the store; polling an evicted ID returns 404).
	// Queued and running jobs are never evicted.
	MaxJobs int
	// MaxResultBytes bounds the total marshaled result bytes retained
	// across finished jobs (default 64 MiB) — count-based eviction
	// alone would let a few huge matrix results accumulate multi-GB
	// memory. Over the cap, oldest finished jobs are evicted; their
	// results remain reproducible from the store.
	MaxResultBytes int

	// RatePerSec enables per-client token-bucket rate limiting of the
	// job-creating POST endpoints at this sustained rate (requests per
	// second per client address). 0 disables. Over-rate requests get
	// 429 with a Retry-After header.
	RatePerSec float64
	// RateBurst is the token-bucket capacity (default: 2*RatePerSec,
	// at least 1).
	RateBurst int

	// ClusterShards, when > 1, is the default shard count for matrix
	// jobs that do not set "shards" themselves: such jobs are split
	// into that many leases for cluster workers instead of executing
	// locally. 0 or 1 keeps matrix jobs local unless a request asks.
	ClusterShards int
	// LeaseTTL is how long a claimed shard lease lives without a
	// heartbeat before it is considered abandoned and re-offered to
	// other workers (default 10s). Short TTLs re-steal dead workers'
	// shards faster but demand faster heartbeats.
	LeaseTTL time.Duration
	// DisableSelfWork stops the coordinator from executing shards
	// itself. By default a cluster job's coordinator claims any shard
	// that has stayed unclaimed for a full LeaseTTL — external workers
	// get first shot, but a job always completes even with zero
	// workers. Tests that pin worker behavior disable it.
	DisableSelfWork bool
}

// Job states. A job moves queued -> running -> done|failed|cancelled;
// cancellation of a queued job is immediate.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// runFunc executes a job's work. ctx is cancelled by DELETE
// /v1/jobs/{id} and by server Close; matrix jobs honor it with
// cell-granular cancellation, synthesis jobs check it before starting.
type runFunc func(ctx context.Context, j *job) (result any, cacheHit bool, err error)

// job is the registry entry; mutable fields are guarded by Server.mu.
type job struct {
	id       string
	seq      int    // creation order (authoritative; IDs are display only)
	finSeq   int    // finish order (eviction spares the newest-finished)
	kind     string // a kind-table key ("synth", "matrix", "pareto")
	priority int
	state    string
	cacheHit bool
	err      string
	result   json.RawMessage
	started  time.Time
	finished time.Time

	progressDone  int
	progressTotal int

	cancelled bool // DELETE arrived (running jobs flip state on finish)
	cancel    context.CancelFunc
	ctx       context.Context
	heapIdx   int // position in the pending heap while queued
	run       runFunc
}

// Progress is a job's resolved-work counter: done of total units
// (matrix cells for matrix jobs, sweep units for pareto jobs).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobView is the canonical wire form of a job — the single envelope
// every handler (and the SSE stream) emits.
type JobView struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Priority int    `json:"priority"`
	// Progress reports resolved work units (matrix cells, pareto sweep
	// units); omitted for synth jobs and until the total is known.
	Progress *Progress `json:"progress,omitempty"`
	// CacheHit reports that the job's entire result came from the
	// store: no synthesis search, no simulated cells.
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
	// ElapsedMS is the execution time (0 until started; queued wait
	// excluded).
	ElapsedMS int64           `json:"elapsed_ms"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// pendingHeap holds exactly the queued jobs, ordered by (priority desc,
// seq asc): higher priority first, FIFO within a priority band. A job
// leaves it when a worker pops it or a DELETE cancels it.
type pendingHeap []*job

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h pendingHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *pendingHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// Server is the HTTP front end. Create with New, mount Handler, and
// Close when done.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	wg      sync.WaitGroup
	limiter *rateLimiter

	mu          sync.Mutex
	cond        *sync.Cond // job queued, or server closing
	pending     pendingHeap
	jobs        map[string]*job
	nextID      int
	nextFin     int
	closed      bool
	resultBytes int // total len(job.result) across finished jobs

	// Cluster coordination state (cluster.go).
	clusters    map[string]*clusterRun
	leaseSeq    int
	workersSeen map[string]time.Time

	stats serverStats
}

// New validates the config and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 32
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = 1000
	}
	if cfg.MaxResultBytes == 0 {
		cfg.MaxResultBytes = 64 << 20
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Workers < 1 || cfg.QueueDepth < 1 || cfg.MaxJobs < 1 || cfg.MaxResultBytes < 1 {
		return nil, fmt.Errorf("serve: need at least 1 worker, queue slot, job slot and result byte")
	}
	if cfg.RatePerSec < 0 || cfg.RateBurst < 0 || cfg.ClusterShards < 0 {
		return nil, fmt.Errorf("serve: negative rate, burst or shard count")
	}
	if cfg.LeaseTTL < time.Millisecond {
		// Leases carry whole milliseconds: a shorter TTL would go out
		// as ttl_ms 0.
		return nil, fmt.Errorf("serve: LeaseTTL %v under 1ms", cfg.LeaseTTL)
	}
	if cfg.ClusterShards > maxShards {
		return nil, fmt.Errorf("serve: ClusterShards %d over cap %d", cfg.ClusterShards, maxShards)
	}
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		jobs:        map[string]*job{},
		clusters:    map[string]*clusterRun{},
		workersSeen: map[string]time.Time{},
		stats:       serverStats{accepted: map[string]int64{}},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.RatePerSec > 0 {
		burst := cfg.RateBurst
		if burst == 0 {
			burst = int(2 * cfg.RatePerSec)
			if burst < 1 {
				burst = 1
			}
		}
		s.limiter = newRateLimiter(cfg.RatePerSec, burst)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/jobs", s.handlePostJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /v1/cluster/claim", s.handleClusterClaim)
	s.mux.HandleFunc("POST /v1/cluster/heartbeat", s.handleClusterHeartbeat)
	s.mux.HandleFunc("POST /v1/cluster/complete", s.handleClusterComplete)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the HTTP handler (mount on any server or mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Close rejects new jobs (POSTs answer 503), cancels the contexts of
// running jobs (a running matrix job stops within one cell per pool
// worker and finishes cancelled; synthesis runs complete), and stops
// the worker pool. Jobs still queued afterwards are marked failed so
// pollers terminate instead of spinning on a job that will never run.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, j := range s.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.pending {
		s.finishLocked(j, StateFailed, "server shut down before the job started")
	}
	s.pending = nil
}

// finishLocked moves a job into a terminal state. Caller holds s.mu.
func (s *Server) finishLocked(j *job, state, errMsg string) {
	j.state = state
	j.err = errMsg
	j.finished = time.Now()
	s.nextFin++
	j.finSeq = s.nextFin
	j.run = nil
	if j.cancel != nil {
		j.cancel() // release the context's resources
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && len(s.pending) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.pending).(*job)
		j.state = StateRunning
		j.started = time.Now()
		s.mu.Unlock()
		s.execute(j)
	}
}

func (s *Server) execute(j *job) {
	result, cacheHit, err := runContained(j.ctx, j, j.run)
	// Marshal outside the lock: a big matrix result must not stall
	// every handler and enqueue behind one critical section.
	var b []byte
	if err == nil {
		b, err = json.Marshal(result)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err != nil && (j.cancelled || errors.Is(err, context.Canceled)):
		s.stats.cancelledTotal++
		s.finishLocked(j, StateCancelled, err.Error())
	case err != nil:
		s.finishLocked(j, StateFailed, err.Error())
	default:
		s.finishLocked(j, StateDone, "")
		j.cacheHit = cacheHit
		j.result = b
		s.resultBytes += len(b)
	}
	s.evictLocked()
}

// overBudgetLocked reports whether the registry exceeds either bound.
func (s *Server) overBudgetLocked() bool {
	return len(s.jobs) >= s.cfg.MaxJobs || s.resultBytes > s.cfg.MaxResultBytes
}

// evictLocked keeps the registry within MaxJobs and MaxResultBytes by
// dropping the oldest-finished jobs (by finish sequence, not creation
// order or ID string: a slow early job that just completed must not be
// the first evicted). The most recently finished job is always
// retained so a client gets at least one poll at its result. Caller
// holds s.mu.
func (s *Server) evictLocked() {
	if !s.overBudgetLocked() {
		return
	}
	finished := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if terminal(j.state) {
			finished = append(finished, j)
		}
	}
	sort.Slice(finished, func(i, k int) bool { return finished[i].finSeq < finished[k].finSeq })
	for i, j := range finished {
		if !s.overBudgetLocked() || i == len(finished)-1 {
			return
		}
		s.resultBytes -= len(j.result)
		delete(s.jobs, j.id)
	}
}

// runContained executes a job function, converting a panic anywhere in
// the synthesis/simulation stack into a failed job instead of a dead
// server (workers share the process with every other job and the
// listener).
func runContained(ctx context.Context, j *job, run runFunc) (result any, cacheHit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, cacheHit = nil, false
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return run(ctx, j)
}

// apiError is a handler-layer rejection: HTTP status, stable error
// code, message, and an optional Retry-After hint in seconds.
type apiError struct {
	status     int
	code       string
	message    string
	retryAfter int
}

func (e *apiError) Error() string { return e.message }

// enqueue admits and registers a job. Admission is priority-aware: a
// full queue rejects everything; a queue at or past half depth rejects
// negative-priority (batch) jobs early so interactive work keeps
// queueing. Both rejections carry a Retry-After estimate.
func (s *Server) enqueue(kind string, priority int, run runFunc) (*job, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &apiError{status: http.StatusServiceUnavailable, code: "shutting_down", message: "server shutting down"}
	}
	s.evictLocked()
	queued := len(s.pending)
	retry := 1 + queued/s.cfg.Workers
	if queued >= s.cfg.QueueDepth {
		s.stats.shedTotal++
		return nil, &apiError{
			status: http.StatusServiceUnavailable, code: "queue_full",
			message:    fmt.Sprintf("job queue full (%d pending)", queued),
			retryAfter: retry,
		}
	}
	if priority < 0 && queued >= (s.cfg.QueueDepth+1)/2 {
		s.stats.shedTotal++
		return nil, &apiError{
			status: http.StatusServiceUnavailable, code: "shed_low_priority",
			message:    fmt.Sprintf("queue past high-water mark (%d pending): negative-priority jobs shed first", queued),
			retryAfter: retry,
		}
	}
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:   fmt.Sprintf("j%06d", s.nextID),
		seq:  s.nextID,
		kind: kind, priority: priority, state: StateQueued,
		ctx: ctx, cancel: cancel,
		run: run,
	}
	s.jobs[j.id] = j
	heap.Push(&s.pending, j)
	s.stats.accepted[kind]++
	s.cond.Signal()
	return j, nil
}

// setProgress updates a job's resolved-work counter; safe for
// concurrent calls from RunMatrix's pool (done is monotone).
func (s *Server) setProgress(j *job, done, total int) {
	s.mu.Lock()
	if done > j.progressDone {
		j.progressDone = done
	}
	j.progressTotal = total
	s.mu.Unlock()
}

func (s *Server) view(j *job, withResult bool) JobView {
	v := JobView{
		ID: j.id, Kind: j.kind, State: j.state,
		Priority: j.priority, CacheHit: j.cacheHit, Error: j.err,
	}
	if j.progressTotal > 0 {
		v.Progress = &Progress{Done: j.progressDone, Total: j.progressTotal}
	}
	switch {
	case j.started.IsZero():
		// Never executed (still queued, or failed at shutdown).
	case !j.finished.IsZero():
		v.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	default:
		v.ElapsedMS = time.Since(j.started).Milliseconds()
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// ---- shared handler plumbing ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ErrorDetail is the body of the uniform error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON shape of every non-2xx response:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeError(w, e.status, e.code, "%s", e.message)
}

// ---- core handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs, queued := len(s.jobs), len(s.pending)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"jobs":   jobs,
		"queued": queued,
		"store":  s.cfg.Store.Dir(),
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var v JobView
	if ok {
		v = s.view(j, true)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleCancelJob is DELETE /v1/jobs/{id}: a queued job cancels
// immediately; a running job's context is cancelled (matrix jobs stop
// within one cell per pool worker, cluster jobs revoke their shard
// leases) and flips to cancelled when its runner returns. Terminal
// jobs answer 409.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "not_found", "no such job %q", id)
		return
	}
	switch j.state {
	case StateQueued:
		heap.Remove(&s.pending, j.heapIdx)
		s.stats.cancelledTotal++
		s.finishLocked(j, StateCancelled, "cancelled before start")
	case StateRunning:
		j.cancelled = true
		j.cancel()
	default:
		state := j.state
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "conflict", "job %s already %s", id, state)
		return
	}
	v := s.view(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// handleJobs is GET /v1/jobs: creation-ordered listing with pagination
// (?limit=, ?after=<job id>) and state filtering (?state=running). The
// response carries next_after when truncated.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 100
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad_request", "bad limit %q", ls)
			return
		}
		if n > 1000 {
			n = 1000
		}
		limit = n
	}
	stateFilter := q.Get("state")
	switch stateFilter {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		writeError(w, http.StatusBadRequest, "bad_request", "unknown state %q", stateFilter)
		return
	}
	afterSeq := 0
	if as := q.Get("after"); as != "" {
		// The cursor is a job ID; evicted IDs still work (the sequence
		// is embedded in the ID), so pagination survives eviction.
		n, err := strconv.Atoi(strings.TrimPrefix(as, "j"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad after cursor %q", as)
			return
		}
		afterSeq = n
	}

	type seqView struct {
		seq  int
		view JobView
	}
	s.mu.Lock()
	entries := make([]seqView, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.seq <= afterSeq {
			continue
		}
		if stateFilter != "" && j.state != stateFilter {
			continue
		}
		entries = append(entries, seqView{j.seq, s.view(j, false)})
	}
	s.mu.Unlock()
	// Deterministic creation-order listing (by sequence, not ID string:
	// the zero padding runs out past a million jobs).
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	resp := map[string]any{}
	truncated := len(entries) > limit
	if truncated {
		entries = entries[:limit]
		resp["next_after"] = entries[len(entries)-1].view.ID
	}
	views := make([]JobView, len(entries))
	for i, e := range entries {
		views[i] = e.view
	}
	resp["jobs"] = views
	writeJSON(w, http.StatusOK, resp)
}

// handleJobEvents is GET /v1/jobs/{id}/events: a Server-Sent Events
// stream of the job's envelope, emitted on every state or progress
// change plus a keepalive comment, ending after the terminal event.
// The terminal event omits the result payload — fetch it with a final
// GET /v1/jobs/{id}.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job %q", id)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	last := ""
	idle := 0
	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		var v JobView
		if ok {
			v = s.view(j, false)
		}
		s.mu.Unlock()
		if !ok {
			// Evicted mid-stream: tell the client instead of hanging.
			fmt.Fprintf(w, "event: gone\ndata: {}\n\n")
			flusher.Flush()
			return
		}
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		if string(b) != last {
			last = string(b)
			idle = 0
			fmt.Fprintf(w, "data: %s\n\n", b)
			flusher.Flush()
		} else if idle++; idle >= 150 { // ~15s of silence
			idle = 0
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		}
		if terminal(v.State) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
