package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"netsmith/internal/sim"
	"netsmith/internal/store"
)

func doDelete(t *testing.T, url string) (int, JobView, ErrorEnvelope) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	var env ErrorEnvelope
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
	} else if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, v, env
}

// TestCancelQueuedJob: DELETE on a queued job flips it to cancelled
// immediately; a second DELETE answers 409 conflict.
func TestCancelQueuedJob(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	gate := make(chan struct{})
	defer close(gate)
	if _, qerr := s.enqueue("block", 0, gatedRun(gate)); qerr != nil {
		t.Fatal(qerr)
	}
	waitState(t, s, "j000001", StateRunning)
	j2, qerr := s.enqueue("noop", 0, noopRun)
	if qerr != nil {
		t.Fatal(qerr)
	}

	code, v, _ := doDelete(t, ts.URL+"/v1/jobs/"+j2.id)
	if code != http.StatusOK || v.State != StateCancelled {
		t.Fatalf("DELETE queued job: status %d state %q, want 200 cancelled", code, v.State)
	}
	code, _, env := doDelete(t, ts.URL+"/v1/jobs/"+j2.id)
	if code != http.StatusConflict || env.Error.Code != "conflict" {
		t.Fatalf("second DELETE: status %d code %q, want 409 conflict", code, env.Error.Code)
	}
	if code, _, env := doDelete(t, ts.URL+"/v1/jobs/j999999"); code != http.StatusNotFound || env.Error.Code != "not_found" {
		t.Fatalf("DELETE unknown job: status %d code %q", code, env.Error.Code)
	}
}

// TestCancelRunningJobFreesSlot: DELETE on a running job cancels its
// context, the job finishes cancelled, and the worker slot immediately
// takes the next job — the acceptance criterion for cancellation.
func TestCancelRunningJobFreesSlot(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// The gate never opens: only cancellation can finish this job.
	gate := make(chan struct{})
	j1, qerr := s.enqueue("block", 0, gatedRun(gate))
	if qerr != nil {
		t.Fatal(qerr)
	}
	waitState(t, s, j1.id, StateRunning)
	code, _, _ := doDelete(t, ts.URL+"/v1/jobs/"+j1.id)
	if code != http.StatusOK {
		t.Fatalf("DELETE running job: status %d", code)
	}
	waitState(t, s, j1.id, StateCancelled)

	// The freed slot must run the next job to completion.
	j2, qerr := s.enqueue("noop", 0, noopRun)
	if qerr != nil {
		t.Fatal(qerr)
	}
	if v := pollDone(t, ts.URL, j2.id); v.State != StateDone {
		t.Fatalf("job after cancellation: %+v", v)
	}
}

// holdPlan wraps a plan so every progress report holds its pool worker
// until the job's context ends: each worker resolves one cell and
// waits, so a matrix with more cells than workers is still partial
// whenever a DELETE lands.
type holdPlan struct{ plan }

func (h holdPlan) finish(ctx context.Context, st *store.Store, sh sim.Shard, progress func(done, total int), tally shardTally) (any, bool, func(*serverStats), error) {
	return h.plan.finish(ctx, st, sh, func(done, total int) {
		progress(done, total)
		<-ctx.Done()
	}, tally)
}

// TestCancelRunningMatrixJob: a DELETE mid-matrix stops simulation
// (cell-granular, via the context plumbed through RunMatrix), reports
// the partial progress, and leaves the store consistent for a resume
// that completes from cache.
func TestCancelRunningMatrixJob(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// Two patterns at GOMAXPROCS/2+1 rates: more cells than RunMatrix
	// has pool workers.
	rates := make([]string, runtime.GOMAXPROCS(0)/2+1)
	for i := range rates {
		rates[i] = fmt.Sprint(0.01 * float64(i+1))
	}
	req := `{"grid":"3x3","patterns":["uniform","tornado"],"rates":[` + strings.Join(rates, ",") + `],"fidelity":"smoke","seed":13}`
	p, err := decodeKind("matrix", []byte(req))
	if err != nil {
		t.Fatal(err)
	}
	j, qerr := s.submit("matrix", []byte(req), holdPlan{p}, 0)
	if qerr != nil {
		t.Fatal(qerr)
	}
	// Wait for the first resolved cell, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for {
		s.mu.Lock()
		done := j.progressDone
		s.mu.Unlock()
		if done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("matrix job never resolved a cell")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, _ := doDelete(t, ts.URL+"/v1/jobs/"+j.id); code != http.StatusOK {
		t.Fatalf("DELETE running matrix: status %d", code)
	}
	v := pollDone(t, ts.URL, j.id)
	if v.State != StateCancelled {
		t.Fatalf("cancelled matrix job state %q (error %q)", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "cancelled") {
		t.Errorf("cancelled job error %q", v.Error)
	}
	if v.Progress == nil || v.Progress.Done < 1 || v.Progress.Done >= v.Progress.Total {
		t.Errorf("cancelled matrix progress %+v, want partial", v.Progress)
	}

	// Resume: the identical request completes, serving the cancelled
	// run's persisted cells from the store.
	code, j2 := postReq(t, ts.URL+"/v1/jobs", `{"kind":"matrix",`+req[1:])
	if code != http.StatusAccepted {
		t.Fatalf("resume POST status %d", code)
	}
	v2 := pollDone(t, ts.URL, j2.ID)
	if v2.State != StateDone {
		t.Fatalf("resumed job: %+v", v2)
	}
	var r MatrixJobResult
	if err := json.Unmarshal(v2.Result, &r); err != nil {
		t.Fatal(err)
	}
	if r.Stats.CacheHits < 1 {
		t.Errorf("resumed run reused no cells: %+v", r.Stats)
	}
}

// TestJobsPaginationAndFilter: GET /v1/jobs pages with limit/after and
// filters by state.
func TestJobsPaginationAndFilter(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	for i := 0; i < 5; i++ {
		j, qerr := s.enqueue("noop", 0, noopRun)
		if qerr != nil {
			t.Fatal(qerr)
		}
		waitState(t, s, j.id, StateDone)
	}
	gate := make(chan struct{})
	defer close(gate)
	running, qerr := s.enqueue("block", 0, gatedRun(gate))
	if qerr != nil {
		t.Fatal(qerr)
	}
	waitState(t, s, running.id, StateRunning)

	list := func(query string) (views []JobView, nextAfter string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s: status %d", query, resp.StatusCode)
		}
		var out struct {
			Jobs      []JobView `json:"jobs"`
			NextAfter string    `json:"next_after"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Jobs, out.NextAfter
	}

	// Page through all six jobs two at a time.
	var ids []string
	after := ""
	for page := 0; page < 4; page++ {
		views, next := list("?limit=2" + after)
		for _, v := range views {
			ids = append(ids, v.ID)
		}
		if next == "" {
			break
		}
		after = "&after=" + next
	}
	if len(ids) != 6 {
		t.Fatalf("paged listing returned %d jobs: %v", len(ids), ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("listing out of creation order: %v", ids)
		}
	}

	if views, next := list("?state=done"); len(views) != 5 || next != "" {
		t.Errorf("state=done listed %d jobs (next %q), want 5", len(views), next)
	}
	if views, _ := list("?state=running"); len(views) != 1 || views[0].ID != running.id {
		t.Errorf("state=running listed %+v, want just %s", views, running.id)
	}
	if views, _ := list("?state=failed"); len(views) != 0 {
		t.Errorf("state=failed listed %d jobs, want 0", len(views))
	}

	for _, q := range []string{"?state=bogus", "?limit=0", "?limit=abc", "?after=xyz"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestPriorityOrdering: with one worker busy, a later high-priority job
// overtakes earlier normal-priority ones in the queue.
func TestPriorityOrdering(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	gate := make(chan struct{})
	blocker, qerr := s.enqueue("block", 0, gatedRun(gate))
	if qerr != nil {
		t.Fatal(qerr)
	}
	waitState(t, s, blocker.id, StateRunning)
	normal, qerr := s.enqueue("noop", 0, noopRun)
	if qerr != nil {
		t.Fatal(qerr)
	}
	urgent, qerr := s.enqueue("noop", 5, noopRun)
	if qerr != nil {
		t.Fatal(qerr)
	}
	close(gate)
	waitState(t, s, normal.id, StateDone)
	waitState(t, s, urgent.id, StateDone)
	s.mu.Lock()
	normalFin, urgentFin := normal.finSeq, urgent.finSeq
	s.mu.Unlock()
	if urgentFin >= normalFin {
		t.Errorf("priority 5 job finished #%d, after priority 0 job #%d", urgentFin, normalFin)
	}
}

// TestPriorityShedding: past the half-depth high-water mark,
// negative-priority jobs shed with 503 + Retry-After while
// normal-priority jobs still queue.
func TestPriorityShedding(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	gate := make(chan struct{})
	defer close(gate)
	blocker, qerr := s.enqueue("block", 0, gatedRun(gate))
	if qerr != nil {
		t.Fatal(qerr)
	}
	waitState(t, s, blocker.id, StateRunning)
	// Two queued jobs reach the high-water mark (ceil(4+1)/2 = 2).
	for i := 0; i < 2; i++ {
		if _, qerr := s.enqueue("block", 0, gatedRun(gate)); qerr != nil {
			t.Fatal(qerr)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"synth","grid":"4x5","iterations":1000,"restarts":1,"priority":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "shed_low_priority" {
		t.Fatalf("low-priority POST: status %d code %q, want 503 shed_low_priority", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	// A normal-priority job still gets in.
	if code, _ := postReq(t, ts.URL+"/v1/jobs", `{"kind":"synth","grid":"4x5","iterations":1000,"restarts":1}`); code != http.StatusAccepted {
		t.Errorf("normal-priority POST above high water: status %d, want 202", code)
	}
}

// TestRateLimit: the per-client token bucket rejects the POST that
// exceeds the burst with 429 + Retry-After; reads stay unthrottled.
func TestRateLimit(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 8, RatePerSec: 0.5, RateBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	body := `{"kind":"synth","grid":"4x5","iterations":1000,"restarts":1}`
	for i := 0; i < 2; i++ {
		if code, _ := postReq(t, ts.URL+"/v1/jobs", body); code != http.StatusAccepted {
			t.Fatalf("POST %d within burst: status %d", i, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != "rate_limited" {
		t.Fatalf("over-burst POST: status %d code %q, want 429 rate_limited", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limited response missing Retry-After")
	}
	// Reads are never limited.
	for i := 0; i < 5; i++ {
		r, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET under rate limit: status %d", r.StatusCode)
		}
	}
}

// TestMetrics: /metrics speaks Prometheus text and reflects job and
// cell accounting after a matrix job.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	code, j := postReq(t, ts.URL+"/v1/jobs", `{"kind":"matrix","grid":"3x3","rates":[0.02],"fidelity":"smoke","seed":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	pollDone(t, ts.URL, j.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`netsmith_jobs{state="done"} 1`,
		`netsmith_jobs_accepted_total{kind="matrix"} 1`,
		`netsmith_matrix_cells_total{source="computed"} 1`,
		"netsmith_queue_depth 0",
		"netsmith_queue_capacity 8",
		"netsmith_cells_per_second",
		"netsmith_cache_hit_ratio",
		"netsmith_cluster_workers_live 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsBusyTimeCountsOverlapOnce: netsmith_cells_per_second
// divides by the wall time during which at least one matrix or pareto
// job ran. Jobs over [0, 10] s and [2, 5] s count 10 s, not the 13 s of
// their summed run times, and a scrape while a job runs counts the
// open interval up to the scrape.
func TestMetricsBusyTimeCountsOverlapOnce(t *testing.T) {
	at := func(sec int) time.Time { return time.Unix(1000, 0).Add(time.Duration(sec) * time.Second) }
	var st serverStats
	for _, step := range []struct {
		start, end bool
		sec        int
		want       time.Duration
	}{
		{start: true, sec: 0},
		{start: true, sec: 2, want: 2 * time.Second},
		{sec: 4, want: 4 * time.Second},
		{end: true, sec: 5, want: 5 * time.Second},
		{sec: 7, want: 7 * time.Second},
		{end: true, sec: 10, want: 10 * time.Second},
		{sec: 30, want: 10 * time.Second},
		{start: true, sec: 40, want: 10 * time.Second},
		{end: true, sec: 41, want: 11 * time.Second},
	} {
		switch {
		case step.start:
			st.busyStart(at(step.sec))
		case step.end:
			st.busyEnd(at(step.sec))
		}
		if got := st.busyAt(at(step.sec)); got != step.want {
			t.Errorf("at %d s: busy %v, want %v", step.sec, got, step.want)
		}
	}
}

// TestSSEJobEvents: the events stream emits the job envelope on every
// change and terminates with the terminal event.
func TestSSEJobEvents(t *testing.T) {
	_, ts := newTestServer(t)
	code, j := postReq(t, ts.URL+"/v1/jobs", `{"kind":"matrix","grid":"3x3","patterns":["uniform","tornado"],"rates":[0.02,0.1],"fidelity":"smoke","seed":21}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var events []JobView
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var v JobView
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, v)
	}
	// The stream must have closed itself (terminal event last), with
	// every event belonging to the job and progress monotone.
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	final := events[len(events)-1]
	if final.State != StateDone {
		t.Fatalf("final SSE event state %q: %+v", final.State, final)
	}
	if final.Progress == nil || final.Progress.Done != final.Progress.Total || final.Progress.Total != 4 {
		t.Errorf("final SSE progress %+v, want 4/4", final.Progress)
	}
	lastDone := -1
	for _, e := range events {
		if e.ID != j.ID {
			t.Errorf("SSE event for wrong job: %+v", e)
		}
		if e.Progress != nil {
			if e.Progress.Done < lastDone {
				t.Errorf("SSE progress went backwards: %d after %d", e.Progress.Done, lastDone)
			}
			lastDone = e.Progress.Done
		}
	}

	// Streaming an unknown job is a plain 404.
	r2, err := http.Get(ts.URL + "/v1/jobs/j999999/events")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: status %d", r2.StatusCode)
	}
}

// TestErrorEnvelopeShape pins the wire shape literally: every error is
// {"error":{"code","message"}} — no flat-string bodies anywhere.
func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/j424242")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]map[string]string
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("error body is not a nested envelope: %s", body)
	}
	if raw["error"]["code"] == "" || raw["error"]["message"] == "" {
		t.Fatalf("error envelope incomplete: %s", body)
	}
}
