package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netsmith/internal/store"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postReq(t *testing.T, url, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v
}

// pollDone polls the job until it reaches a terminal state.
func pollDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if terminal(v.State) {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// waitState spins until the job reaches the wanted state (registry
// access; only usable from this package's tests).
func waitState(t *testing.T, s *Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		j, ok := s.jobs[id]
		var state string
		if ok {
			state = j.state
		}
		s.mu.Unlock()
		if state == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// noopRun is a trivial job body for queue-mechanics tests.
func noopRun(ctx context.Context, _ *job) (any, bool, error) { return "ok", false, nil }

// gatedRun blocks until the gate closes or the job is cancelled.
func gatedRun(gate chan struct{}) runFunc {
	return func(ctx context.Context, _ *job) (any, bool, error) {
		select {
		case <-gate:
			return "ok", false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v["status"] != "ok" {
		t.Fatalf("healthz body %v", v)
	}
}

// TestSynthJobLifecycleAndCacheHit: first POST computes, second POST of
// the identical request completes from the store with cache_hit set and
// an identical topology. Runs through the unified /v1/jobs surface.
func TestSynthJobLifecycleAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"kind":"synth","grid":"4x5","class":"medium","objective":"latop","seed":3,"iterations":1500,"restarts":1}`

	code, j1 := postReq(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	if j1.State != StateQueued && j1.State != StateRunning {
		t.Fatalf("fresh job state %q", j1.State)
	}
	if j1.Status != j1.State {
		t.Fatalf("deprecated status alias %q != state %q", j1.Status, j1.State)
	}
	done1 := pollDone(t, ts.URL, j1.ID)
	if done1.State != StateDone {
		t.Fatalf("job 1: %+v", done1)
	}
	if done1.CacheHit {
		t.Error("first synthesis claims a cache hit")
	}
	var r1 SynthResult
	if err := json.Unmarshal(done1.Result, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Links == 0 || r1.Diameter == 0 || r1.Objective == 0 {
		t.Fatalf("implausible synth result: %+v", r1)
	}

	code, j2 := postReq(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST 2 status %d", code)
	}
	done2 := pollDone(t, ts.URL, j2.ID)
	if done2.State != StateDone || !done2.CacheHit {
		t.Fatalf("repeated request not served from cache: %+v", done2)
	}
	var r2 SynthResult
	if err := json.Unmarshal(done2.Result, &r2); err != nil {
		t.Fatal(err)
	}
	if string(r1.Topology) != string(r2.Topology) {
		t.Error("cached topology differs from computed one")
	}
	if r1.Objective != r2.Objective || r1.AvgHops != r2.AvgHops {
		t.Errorf("cached metrics differ: %+v vs %+v", r1, r2)
	}
}

// TestSynthPopulationJob: population-mode synth bodies run end to end
// through /v1/jobs, the repeated POST is a cache hit, and a classic
// restart body over the same store never collides with it.
func TestSynthPopulationJob(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"kind":"synth","grid":"4x5","class":"medium","objective":"latop","seed":3,"iterations":1200,"restarts":1,"population":2,"generations":1}`

	code, j1 := postReq(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	done1 := pollDone(t, ts.URL, j1.ID)
	if done1.State != StateDone || done1.CacheHit {
		t.Fatalf("population job 1: %+v", done1)
	}
	var r1 SynthResult
	if err := json.Unmarshal(done1.Result, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Links == 0 || r1.Objective == 0 {
		t.Fatalf("implausible population result: %+v", r1)
	}

	code, j2 := postReq(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST 2 status %d", code)
	}
	done2 := pollDone(t, ts.URL, j2.ID)
	if done2.State != StateDone || !done2.CacheHit {
		t.Fatalf("repeated population request not served from cache: %+v", done2)
	}

	classic := `{"kind":"synth","grid":"4x5","class":"medium","objective":"latop","seed":3,"iterations":1200,"restarts":1}`
	code, j3 := postReq(t, ts.URL+"/v1/jobs", classic)
	if code != http.StatusAccepted {
		t.Fatalf("POST 3 status %d", code)
	}
	done3 := pollDone(t, ts.URL, j3.ID)
	if done3.State != StateDone {
		t.Fatalf("classic job: %+v", done3)
	}
	if done3.CacheHit {
		t.Error("classic restart request collided with the population cache entry")
	}
}

// TestMatrixJobCacheHit: the serve-smoke contract — a repeated matrix
// POST simulates zero cells. Exercises the deprecated /v1/matrix alias
// to pin that it still works and routes into the same path.
func TestMatrixJobCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"grid":"3x3","patterns":["uniform","tornado"],"rates":[0.02,0.1],"fidelity":"smoke","energy":true,"seed":9}`

	resp, err := http.Post(ts.URL+"/v1/matrix", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") == "" {
		t.Error("alias response missing Deprecation header")
	}
	var j1 JobView
	if err := json.NewDecoder(resp.Body).Decode(&j1); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done1 := pollDone(t, ts.URL, j1.ID)
	if done1.State != StateDone {
		t.Fatalf("matrix job failed: %+v", done1)
	}
	if done1.CacheHit {
		t.Error("first matrix run claims a cache hit")
	}
	if done1.Progress == nil || done1.Progress.Done != 4 || done1.Progress.Total != 4 {
		t.Errorf("finished matrix progress = %+v, want 4/4", done1.Progress)
	}
	var r1 MatrixJobResult
	if err := json.Unmarshal(done1.Result, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cells != 4 || r1.Stats.Computed != 4 || r1.Stats.CacheHits != 0 {
		t.Fatalf("first run stats: %+v", r1.Stats)
	}
	if len(r1.Matrix.Curves) != 2 {
		t.Fatalf("curves: %d", len(r1.Matrix.Curves))
	}

	// Second run through the unified endpoint: same cells, all cached.
	code, j2 := postReq(t, ts.URL+"/v1/jobs", `{"kind":"matrix",`+body[1:])
	if code != http.StatusAccepted {
		t.Fatalf("POST 2 status %d", code)
	}
	done2 := pollDone(t, ts.URL, j2.ID)
	if done2.State != StateDone || !done2.CacheHit {
		t.Fatalf("repeated matrix not served from cache: %+v", done2)
	}
	var r2 MatrixJobResult
	if err := json.Unmarshal(done2.Result, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Computed != 0 || r2.Stats.CacheHits != 4 {
		t.Fatalf("second run stats: %+v", r2.Stats)
	}
	// The served matrices are byte-identical (Stats ride outside).
	m1, _ := json.Marshal(r1.Matrix)
	m2, _ := json.Marshal(r2.Matrix)
	if string(m1) != string(m2) {
		t.Error("cache-served matrix differs from computed one")
	}
}

// badRequests are POSTs every endpoint must answer with 400
// bad_request; FuzzJobBody seeds its corpus from their bodies.
var badRequests = []struct{ path, body string }{
	{"/v1/synth", `{"grid":"bogus"}`},
	{"/v1/synth", `{"grid":"4x5","objective":"nope"}`},
	{"/v1/synth", `{"grid":"4x5","unknown_field":1}`},
	{"/v1/synth", `{"grid":"100x100"}`},                                                                       // router cap
	{"/v1/synth", `{"grid":"4x5","iterations":2000000}`},                                                      // iteration cap
	{"/v1/synth", `{"grid":"4x5","restarts":1000}`},                                                           // restart cap
	{"/v1/matrix", `{"grid":"4x4","topos":["mesh","mesh","mesh","mesh","mesh","mesh","mesh","mesh","mesh"]}`}, // topo cap
	{"/v1/matrix", `{"grid":"4x5","patterns":["nosuch"]}`},
	{"/v1/matrix", `{"grid":"4x5","rates":[-1]}`},
	{"/v1/matrix", `{"grid":"4x5","topos":["ring"]}`},
	{"/v1/matrix", `{"grid":"4x5","fidelity":"warp"}`},
	{"/v1/matrix", `{"grid":"200x200"}`},                              // router cap
	{"/v1/matrix", `{"grid":"4x5","synth_iterations":2000000}`},       // iteration cap
	{"/v1/matrix", `{"grid":"4x5","patterns":["trace:file=/etc/x"]}`}, // trace is CLI-only
	{"/v1/synth", `{"grid":"4x5","iterations":-1}`},                   // negative budget
	{"/v1/synth", `{"grid":"4x5","energy_weight":-1}`},                // negative weight
	{"/v1/synth", `{"grid":"4x5","radix":-2}`},                        // negative radix
	{"/v1/matrix", `{"grid":"4x5","energy_weight":-1}`},               // negative weight
	{"/v1/synth", `{"grid":"4x5","robust_weight":-1}`},                // negative weight
	{"/v1/matrix", `{"grid":"4x5","robust_weight":-1}`},               // negative weight
	{"/v1/matrix", `{"grid":"4x5","faults":["nosuch"]}`},              // unknown schedule
	{"/v1/matrix", `{"grid":"4x5","faults":["klinks:k=abc"]}`},        // bad param
	{"/v1/matrix", `{"grid":"4x5","faults":["klinks:k=1","klinks:k=2","klinks:k=3","klinks:k=4","klinks:k=5","klinks:k=6","klinks:k=7","klinks:k=8","klinks:k=9","klinks:k=10","klinks:k=11","klinks:k=12","klinks:k=13","klinks:k=14","klinks:k=15","klinks:k=16","klinks:k=17"]}`}, // fault cap
	{"/v1/matrix", `not json`},
	// Unified-endpoint rejections: missing/unknown kind, bad
	// priority, out-of-range shards, typoed fields.
	{"/v1/jobs", `{"grid":"4x5"}`},                                // missing kind
	{"/v1/jobs", `{"kind":"paint","grid":"4x5"}`},                 // unknown kind
	{"/v1/jobs", `{"kind":"synth","grid":"4x5","priority":9000}`}, // priority range
	{"/v1/jobs", `{"kind":"matrix","grid":"4x5","shards":-1}`},    // negative shards
	{"/v1/jobs", `{"kind":"matrix","grid":"4x5","shards":100}`},   // shard cap
	{"/v1/jobs", `{"kind":"synth","grid":"4x5","unknown_field":1}`},
	{"/v1/jobs", `not json`},
	// Population knobs: population 1 is invalid, generations need a
	// population, caps hold, and the total population budget
	// (population x generations x iterations) is bounded even when
	// each knob individually passes its cap.
	{"/v1/synth", `{"grid":"4x5","population":1}`},
	{"/v1/synth", `{"grid":"4x5","population":100}`},
	{"/v1/synth", `{"grid":"4x5","generations":2}`},
	{"/v1/synth", `{"grid":"4x5","population":2,"generations":100}`},
	{"/v1/synth", `{"grid":"4x5","population":64,"generations":64,"iterations":1000000}`},
	{"/v1/matrix", `{"grid":"4x5","synth_population":1}`},
	{"/v1/matrix", `{"grid":"4x5","synth_generations":2}`},
	{"/v1/matrix", `{"grid":"4x5","synth_population":64,"synth_generations":64,"synth_iterations":1000000}`},
	// Exactly one JSON value per body: trailing garbage or a second
	// object must not be silently dropped.
	{"/v1/synth", `{"grid":"4x5"} garbage`},
	{"/v1/synth", `{"grid":"4x5"}{"grid":"4x5"}`},
	{"/v1/matrix", `{"grid":"3x3"} garbage`},
	{"/v1/matrix", `{"grid":"3x3"}{"grid":"3x3"}`},
	{"/v1/pareto", `{"grid":"3x3"} garbage`},
	{"/v1/pareto", `{"grid":"3x3"}{"grid":"3x3"}`},
	{"/v1/jobs", `{"kind":"matrix","grid":"3x3"} garbage`},
	{"/v1/jobs", `{"kind":"matrix","grid":"3x3"}{"kind":"matrix","grid":"3x3"}`},
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range badRequests {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		decErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", c.path, c.body, resp.StatusCode)
			continue
		}
		if decErr != nil || env.Error.Code != "bad_request" || env.Error.Message == "" {
			t.Errorf("POST %s %s: error envelope %+v (decode err %v)", c.path, c.body, env, decErr)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != "not_found" {
		t.Errorf("unknown job: status %d code %q, want 404 not_found", resp.StatusCode, env.Error.Code)
	}
}

// TestDecodeStrictOneValue: a body is exactly one JSON value, with
// surrounding whitespace allowed (curl and most clients end bodies with
// a newline).
func TestDecodeStrictOneValue(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"grid":"3x3"}`:               true,
		" {\"grid\":\"3x3\"}\n\t ":     true,
		`{"grid":"3x3"} garbage`:       false,
		`{"grid":"3x3"}{"grid":"3x3"}`: false,
		`{"grid":"3x3"} 7`:             false,
		`{"grid":"3x3"} {`:             false,
		`{"grid":"3x3","unknown":1}`:   false,
		`{"grid":"3x3"`:                false,
		``:                             false,
	} {
		var req MatrixRequest
		if err := decodeStrict([]byte(body), &req); (err == nil) != ok {
			t.Errorf("decodeStrict(%q) = %v, want ok=%v", body, err, ok)
		}
	}
}

// TestMatrixFaultAxisJob: a faults request runs the fault-free baseline
// plus each schedule as matrix-axis entries, with labeled curves and
// populated robustness columns.
func TestMatrixFaultAxisJob(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"kind":"matrix","grid":"3x3","patterns":["uniform"],"rates":[0.02],"fidelity":"smoke","faults":["krouters:k=1:seed=3:at=150"],"seed":9}`

	code, j := postReq(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	done := pollDone(t, ts.URL, j.ID)
	if done.State != StateDone {
		t.Fatalf("matrix job failed: %+v", done)
	}
	var r MatrixJobResult
	if err := json.Unmarshal(done.Result, &r); err != nil {
		t.Fatal(err)
	}
	if r.Stats.Cells != 2 {
		t.Fatalf("stats: %+v (want 2 cells: 1 pattern x 2 faults x 1 rate)", r.Stats)
	}
	if len(r.Matrix.Curves) != 2 {
		t.Fatalf("curves: %d, want 2 (baseline + krouters)", len(r.Matrix.Curves))
	}
	var sawClean, sawFaulted bool
	for _, c := range r.Matrix.Curves {
		switch c.Fault {
		case "none":
			sawClean = true
			if p := c.Points[0]; p.DroppedFlits != 0 || p.DeliveredFraction != 1 {
				t.Errorf("baseline curve carries fault damage: %+v", p)
			}
		case "krouters:at=150:k=1:seed=3":
			sawFaulted = true
			// A dead router makes 1/9 of the uniform destinations
			// unreachable: delivery must visibly degrade.
			if p := c.Points[0]; p.DeliveredFraction >= 1 {
				t.Errorf("faulted curve shows no degradation: %+v", p)
			}
		default:
			t.Errorf("unexpected fault label %q", c.Fault)
		}
	}
	if !sawClean || !sawFaulted {
		t.Fatalf("missing curve: clean=%v faulted=%v", sawClean, sawFaulted)
	}
}

// TestMatrixSeedDefault: an omitted seed must mean 42 — the
// netbench -matrix default — so bare HTTP and CLI runs share cache
// cells; an explicit 0 is honored.
func TestMatrixSeedDefault(t *testing.T) {
	req := MatrixRequest{Grid: "3x3"}
	p, err := req.plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.seed != 42 {
		t.Errorf("omitted seed = %d, want 42", p.seed)
	}
	zero := int64(0)
	req.Seed = &zero
	if p, err = req.plan(); err != nil || p.seed != 0 {
		t.Errorf("explicit zero seed = %d (err %v), want 0", p.seed, err)
	}
}

// TestCloseTerminatesQueuedJobs: after Close, every accepted job is in
// a terminal state — pollers never spin on a job that will not run.
func TestCloseTerminatesQueuedJobs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	j1, qerr := s.enqueue("block", 0, gatedRun(gate))
	if qerr != nil {
		t.Fatal("job 1 rejected:", qerr)
	}
	waitState(t, s, j1.id, StateRunning)
	j2, qerr := s.enqueue("noop", 0, noopRun)
	if qerr != nil {
		t.Fatal("job 2 rejected:", qerr)
	}
	close(gate)
	s.Close()
	s.mu.Lock()
	got := s.jobs[j2.id].state
	s.mu.Unlock()
	if !terminal(got) {
		t.Fatalf("queued job left in %q after Close", got)
	}
	// A closed server accepts nothing further.
	if _, qerr := s.enqueue("noop", 0, noopRun); qerr == nil {
		t.Error("closed server accepted a job")
	} else if qerr.code != "shutting_down" {
		t.Errorf("closed-server rejection code %q", qerr.code)
	}
}

// TestJobEviction: the registry stays bounded — finished jobs beyond
// MaxJobs are evicted oldest-first, queued/running jobs never are.
func TestJobEviction(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 8, MaxJobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		j, qerr := s.enqueue("noop", 0, noopRun)
		if qerr != nil {
			t.Fatalf("job %d rejected: %v", i, qerr)
		}
		waitState(t, s, j.id, StateDone)
	}
	s.mu.Lock()
	n := len(s.jobs)
	_, oldest := s.jobs["j000001"]
	_, newest := s.jobs["j000005"]
	s.mu.Unlock()
	if n > 3 {
		t.Errorf("registry holds %d jobs, cap 3", n)
	}
	if oldest {
		t.Error("oldest finished job not evicted")
	}
	if !newest {
		t.Error("newest job evicted")
	}
}

// TestQueueBounded: a 1-worker, depth-1 server sheds load with 503
// instead of buffering unbounded jobs.
func TestQueueBounded(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// Saturate deterministically: a gated job occupies the single
	// worker, a second fills the single queue slot; the next POST must
	// shed with 503.
	gate := make(chan struct{})
	if _, qerr := s.enqueue("block", 0, gatedRun(gate)); qerr != nil {
		t.Fatal("first job rejected:", qerr)
	}
	waitState(t, s, "j000001", StateRunning)
	if _, qerr := s.enqueue("block", 0, gatedRun(gate)); qerr != nil {
		t.Fatal("second job rejected with a free queue slot:", qerr)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"synth","grid":"4x5","seed":11,"iterations":1000,"restarts":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "queue_full" {
		t.Errorf("POST against a full queue: status %d code %q, want 503 queue_full", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue_full response missing Retry-After")
	}
	close(gate)
	pollDone(t, ts.URL, "j000002")
	// With the gate open the queue drains and POSTs flow again.
	code, j := postReq(t, ts.URL+"/v1/jobs", `{"kind":"synth","grid":"4x5","seed":11,"iterations":1000,"restarts":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST after drain: status %d", code)
	}
	if v := pollDone(t, ts.URL, j.ID); v.State != StateDone {
		t.Fatalf("post-drain job: %+v", v)
	}

	// The jobs listing endpoint stays responsive and well-formed.
	resp2, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) == 0 {
		t.Error("jobs listing empty after accepted POSTs")
	}
}
