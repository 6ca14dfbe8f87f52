package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netsmith/internal/exp"
	"netsmith/internal/sim"
	"netsmith/internal/store"
)

// newClusterServer starts a coordinator over a fresh shared store
// directory, returning the server, its test listener, and the store
// path (workers open their own handle on it, as separate processes
// would).
func newClusterServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, dir
}

// startWorker runs a RunWorker loop against the coordinator until the
// test ends.
func startWorker(t *testing.T, coordinator, storeDir, name string) {
	t.Helper()
	wst, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: coordinator, Store: wst, Name: name,
			Poll: 20 * time.Millisecond,
		})
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// localReference runs the request in a single process over a fresh
// store and renders the matrix to CSV and JSON — the byte-identity
// baseline for cluster runs.
func localReference(t *testing.T, req MatrixRequest) (matrix *sim.MatrixResult, csv, js []byte) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ExecuteMatrix(context.Background(), st, req, sim.Shard{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matrix, renderCSV(t, res.Matrix), renderJSON(t, res.Matrix)
}

func renderCSV(t *testing.T, m *sim.MatrixResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := exp.MatrixCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func renderJSON(t *testing.T, m *sim.MatrixResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := exp.MatrixJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func clusterJobResult(t *testing.T, v JobView) MatrixJobResult {
	t.Helper()
	if v.State != StateDone {
		t.Fatalf("cluster job state %q (error %q)", v.State, v.Error)
	}
	var r MatrixJobResult
	if err := json.Unmarshal(v.Result, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

var clusterReqBody = `{"kind":"matrix","grid":"3x3","patterns":["uniform","tornado"],"rates":[0.02,0.05,0.08,0.11],"fidelity":"smoke","energy":true,"seed":31,"shards":2}`

func clusterMatrixRequest(t *testing.T) MatrixRequest {
	t.Helper()
	var req MatrixRequest
	if err := decodeStrict([]byte(strings.Replace(clusterReqBody, `"kind":"matrix",`, "", 1)), &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestClusterSelfWork: with no workers attached, the coordinator picks
// up neglected shard leases itself after the grace period, and the
// merged result is byte-identical to a single-process run.
func TestClusterSelfWork(t *testing.T) {
	_, ts, _ := newClusterServer(t, Config{LeaseTTL: 100 * time.Millisecond})
	code, j := postReq(t, ts.URL+"/v1/jobs", clusterReqBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	r := clusterJobResult(t, pollDone(t, ts.URL, j.ID))
	if r.Shards != 2 {
		t.Errorf("result shards = %d, want 2", r.Shards)
	}
	if r.Stats.Cells != 8 || r.Stats.Computed+r.Stats.CacheHits != 8 {
		t.Errorf("cluster stats %+v, want 8 cells fully accounted", r.Stats)
	}
	_, wantCSV, wantJSON := localReference(t, clusterMatrixRequest(t))
	if !bytes.Equal(renderCSV(t, r.Matrix), wantCSV) {
		t.Error("self-worked cluster CSV differs from single-process run")
	}
	if !bytes.Equal(renderJSON(t, r.Matrix), wantJSON) {
		t.Error("self-worked cluster JSON differs from single-process run")
	}
}

// TestClusterWorkersExecute: two workers drain the shard leases (self
// work disabled, so they must), and the coordinator's merge is
// byte-identical to a single-process run.
func TestClusterWorkersExecute(t *testing.T) {
	s, ts, dir := newClusterServer(t, Config{LeaseTTL: 2 * time.Second, DisableSelfWork: true})
	startWorker(t, ts.URL, dir, "w1")
	startWorker(t, ts.URL, dir, "w2")

	code, j := postReq(t, ts.URL+"/v1/jobs", clusterReqBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	r := clusterJobResult(t, pollDone(t, ts.URL, j.ID))
	if r.Stats.Computed == 0 {
		t.Error("workers computed nothing — did self-work run?")
	}
	_, wantCSV, wantJSON := localReference(t, clusterMatrixRequest(t))
	if !bytes.Equal(renderCSV(t, r.Matrix), wantCSV) {
		t.Error("cluster CSV differs from single-process run")
	}
	if !bytes.Equal(renderJSON(t, r.Matrix), wantJSON) {
		t.Error("cluster JSON differs from single-process run")
	}

	// Liveness: both workers were seen by the coordinator.
	s.mu.Lock()
	_, saw1 := s.workersSeen["w1"]
	_, saw2 := s.workersSeen["w2"]
	s.mu.Unlock()
	if !saw1 || !saw2 {
		t.Errorf("worker liveness: w1=%v w2=%v", saw1, saw2)
	}
}

// TestClusterWorkerKilledMidShard is the acceptance scenario: a worker
// claims a shard, simulates part of it, and dies without completing or
// heartbeating. Its lease expires, a live worker re-steals the shard,
// resumes from the dead worker's persisted cells (content addressing
// makes the partial work durable), and the merged result is
// byte-identical to a single-process run.
func TestClusterWorkerKilledMidShard(t *testing.T) {
	_, ts, dir := newClusterServer(t, Config{LeaseTTL: 300 * time.Millisecond, DisableSelfWork: true})
	code, j := postReq(t, ts.URL+"/v1/jobs", clusterReqBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}

	// Act as the doomed worker: claim a lease over HTTP the way
	// RunWorker does...
	lease := claimOne(t, ts.URL, "doomed")

	// ...execute PART of the shard (killed after the first cell: the
	// context dies, no heartbeat, no completion — exactly a crash as
	// the coordinator observes it)...
	wst, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeKind(lease.Kind, lease.Request)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	if _, err := p.shard(ctx, wst, sim.Shard{Index: lease.Shard, Count: lease.Of},
		func(done, total int) { once.Do(cancel) }); err == nil {
		t.Fatal("partial shard run unexpectedly completed")
	}
	persisted, err := wst.Len()
	if err != nil {
		t.Fatal(err)
	}
	if persisted == 0 {
		t.Fatal("dead worker persisted nothing; the re-steal would resume from scratch")
	}

	// ...then bring up a live worker. It picks up the other shard at
	// once and the dead worker's shard after the lease expires.
	startWorker(t, ts.URL, dir, "rescuer")
	r := clusterJobResult(t, pollDone(t, ts.URL, j.ID))

	// The dead worker's persisted cells were reused, not re-simulated:
	// the cluster-wide computed count excludes them.
	if r.Stats.Cells != 8 || r.Stats.Computed+r.Stats.CacheHits != 8 {
		t.Errorf("cluster stats %+v, want 8 cells fully accounted", r.Stats)
	}
	if r.Stats.CacheHits < persisted {
		t.Errorf("cache hits %d < %d cells the dead worker persisted", r.Stats.CacheHits, persisted)
	}
	if r.Stats.Computed >= 8 {
		t.Errorf("re-steal re-simulated everything (%d computed): partial work lost", r.Stats.Computed)
	}

	_, wantCSV, wantJSON := localReference(t, clusterMatrixRequest(t))
	if !bytes.Equal(renderCSV(t, r.Matrix), wantCSV) {
		t.Error("re-stolen cluster CSV differs from single-process run")
	}
	if !bytes.Equal(renderJSON(t, r.Matrix), wantJSON) {
		t.Error("re-stolen cluster JSON differs from single-process run")
	}
}

// TestClusterCancelRevokesLeases: DELETE on a running cluster job
// flips it to cancelled, answers in-flight heartbeats with 410 Gone so
// workers abandon their shards, stops offering leases, and frees the
// coordinator's worker slot.
func TestClusterCancelRevokesLeases(t *testing.T) {
	s, ts, _ := newClusterServer(t, Config{Workers: 1, DisableSelfWork: true})
	code, j := postReq(t, ts.URL+"/v1/jobs", clusterReqBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	waitState(t, s, j.ID, StateRunning)

	// Hold a lease as a fake worker.
	lease := claimOne(t, ts.URL, "w1")

	if code, _, _ := doDelete(t, ts.URL+"/v1/jobs/"+j.ID); code != http.StatusOK {
		t.Fatalf("DELETE cluster job: status %d", code)
	}
	v := pollDone(t, ts.URL, j.ID)
	if v.State != StateCancelled {
		t.Fatalf("cancelled cluster job state %q", v.State)
	}

	// The held lease is revoked: heartbeats answer 410 and no new
	// leases are offered.
	hb, _ := json.Marshal(HeartbeatRequest{JobID: lease.JobID, LeaseID: lease.LeaseID, Worker: "w1", Done: 1})
	resp, err := http.Post(ts.URL+"/v1/cluster/heartbeat", "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("heartbeat after cancel: status %d, want 410", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/cluster/claim", "application/json", strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("claim after cancel: status %d, want 204", resp.StatusCode)
	}

	// The single worker slot is free again.
	j2, qerr := s.enqueue("noop", 0, noopRun)
	if qerr != nil {
		t.Fatal(qerr)
	}
	if v := pollDone(t, ts.URL, j2.id); v.State != StateDone {
		t.Fatalf("job after cluster cancellation: %+v", v)
	}
}

// withoutShards re-marshals a job payload without its "shards" field,
// the one field the execution paths legitimately differ on.
func withoutShards(t *testing.T, raw []byte) string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "shards")
	b, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPayloadParityAcrossPaths: a matrix job and a pareto sweep return
// the same payload bytes (apart from "shards") and the same cache-hit
// flag whether they run in-process through Execute*, as a served local
// job, or as a served cluster job merged from two self-worked shards —
// on a cold store and again on the warm one.
func TestPayloadParityAcrossPaths(t *testing.T) {
	for _, c := range []struct{ kind, body string }{
		{"matrix", `{"grid":"3x3","topos":["mesh","ns"],"rates":[0.02,0.1],"fidelity":"smoke","seed":5,"synth_iterations":400}`},
		{"pareto", smokeParetoBody},
	} {
		t.Run(c.kind, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			inProcess := func() (string, bool) {
				var out any
				var hit bool
				switch c.kind {
				case "matrix":
					var req MatrixRequest
					if err := decodeStrict([]byte(c.body), &req); err != nil {
						t.Fatal(err)
					}
					out, hit, err = ExecuteMatrix(context.Background(), st, req, sim.Shard{}, nil)
				case "pareto":
					var req ParetoRequest
					if err := decodeStrict([]byte(c.body), &req); err != nil {
						t.Fatal(err)
					}
					out, hit, err = ExecutePareto(context.Background(), st, req, sim.Shard{}, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				return withoutShards(t, b), hit
			}
			served := func(url string, shards int) func() (string, bool) {
				body := fmt.Sprintf(`{"kind":%q,"shards":%d,`, c.kind, shards) + c.body[1:]
				return func() (string, bool) {
					code, j := postReq(t, url+"/v1/jobs", body)
					if code != http.StatusAccepted {
						t.Fatalf("POST %s: status %d", body, code)
					}
					v := pollDone(t, url, j.ID)
					if v.State != StateDone {
						t.Fatalf("%s job: state %q error %q", c.kind, v.State, v.Error)
					}
					return withoutShards(t, v.Result), v.CacheHit
				}
			}
			_, local := newTestServer(t)
			_, cluster, _ := newClusterServer(t, Config{LeaseTTL: 50 * time.Millisecond})
			paths := []struct {
				name string
				run  func() (string, bool)
			}{
				{"in-process", inProcess},
				{"served local", served(local.URL, 1)},
				{"served cluster", served(cluster.URL, 2)},
			}
			for _, temp := range []string{"cold", "warm"} {
				want, wantHit := paths[0].run()
				if wantHit != (temp == "warm") {
					t.Errorf("%s in-process run: cache hit %v", temp, wantHit)
				}
				for _, p := range paths[1:] {
					got, hit := p.run()
					if got != want {
						t.Errorf("%s %s payload differs from in-process:\n%s\n----\n%s", temp, p.name, got, want)
					}
					if hit != wantHit {
						t.Errorf("%s %s cache hit %v, in-process %v", temp, p.name, hit, wantHit)
					}
				}
			}
		})
	}
}

// TestLeaseTTLBelowOneMillisecond: leases carry their TTL in whole
// milliseconds, so New must refuse a LeaseTTL that would go out as
// ttl_ms 0 (self-work would then tick a zero heartbeat interval).
func TestLeaseTTLBelowOneMillisecond(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, ttl := range []time.Duration{500 * time.Microsecond, -time.Second} {
		if s, err := New(Config{Store: st, LeaseTTL: ttl}); err == nil {
			s.Close()
			t.Errorf("New accepted LeaseTTL %v", ttl)
		}
	}
	s, err := New(Config{Store: st, LeaseTTL: time.Millisecond})
	if err != nil {
		t.Fatalf("New refused a 1ms LeaseTTL: %v", err)
	}
	s.Close()
}

// claimOne claims a lease over HTTP as the named worker, polling until
// the coordinator has one to offer.
func claimOne(t *testing.T, url, worker string) Lease {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(url+"/v1/cluster/claim", "application/json", strings.NewReader(`{"worker":"`+worker+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var lease Lease
			err := json.NewDecoder(resp.Body).Decode(&lease)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return lease
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("never got a lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompleteRejectsBadCounts: a completion reporting negative (or
// absurdly large) counts is refused with 400 and leaves the lease live,
// so it cannot corrupt the job's stats or /metrics; the honest
// completion that follows is accepted.
func TestCompleteRejectsBadCounts(t *testing.T) {
	s, ts, _ := newClusterServer(t, Config{Workers: 1, DisableSelfWork: true})
	code, j := postReq(t, ts.URL+"/v1/jobs", clusterReqBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	lease := claimOne(t, ts.URL, "w1")
	post := func(path string, body any) int {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []CompleteRequest{
		{Stats: sim.MatrixStats{Computed: -100}},
		{Stats: sim.MatrixStats{Cells: -1}},
		{Stats: sim.MatrixStats{CacheHits: -1}},
		{Stats: sim.MatrixStats{StoreErrors: -1}},
		{PointsSynthesized: -1},
		{ElapsedMS: -1},
		{Stats: sim.MatrixStats{Computed: 1 << 62}},
	} {
		bad.JobID, bad.LeaseID, bad.Worker = lease.JobID, lease.LeaseID, "w1"
		if code := post("/v1/cluster/complete", bad); code != http.StatusBadRequest {
			t.Errorf("completion %+v: status %d, want 400", bad, code)
		}
	}
	hb := HeartbeatRequest{JobID: lease.JobID, LeaseID: lease.LeaseID, Worker: "w1"}
	if code := post("/v1/cluster/heartbeat", hb); code != http.StatusOK {
		t.Fatalf("heartbeat after refused completions: status %d, want 200 (lease still live)", code)
	}
	s.mu.Lock()
	computed := s.stats.cellsComputed
	s.mu.Unlock()
	if computed != 0 {
		t.Errorf("refused completions charged %d computed cells to /metrics", computed)
	}
	if code := post("/v1/cluster/complete", CompleteRequest{JobID: lease.JobID, LeaseID: lease.LeaseID, Worker: "w1"}); code != http.StatusOK {
		t.Fatalf("honest completion: status %d", code)
	}
	if code, _, _ := doDelete(t, ts.URL+"/v1/jobs/"+j.ID); code != http.StatusOK {
		t.Fatalf("DELETE cluster job: status %d", code)
	}
}

// TestExecuteLeaseOutsideInput: a lease is outside input to a worker.
// One carrying ttl_ms <= 0 still runs its shard (heartbeating at a
// fallback interval, not a zero one), and one with an empty or unknown
// kind is reported as failed instead of being read as a matrix.
func TestExecuteLeaseOutsideInput(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(clusterMatrixRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	run := func(lease Lease) CompleteRequest {
		var comp CompleteRequest
		executeLease(context.Background(), st, "w1", &lease,
			func(context.Context, HeartbeatRequest) bool { return true },
			func(c CompleteRequest) { comp = c })
		return comp
	}
	for _, ttl := range []int64{0, -1} {
		comp := run(Lease{LeaseID: "L1", JobID: "j1", Kind: "matrix", Shard: 0, Of: 2, TTLMS: ttl, Request: req})
		if comp.Error != "" || comp.Stats.Computed+comp.Stats.CacheHits == 0 {
			t.Errorf("ttl_ms %d: completion %+v, want the shard's cells", ttl, comp)
		}
	}
	for _, kind := range []string{"", "paint"} {
		comp := run(Lease{LeaseID: "L2", JobID: "j1", Kind: kind, Shard: 1, Of: 2, TTLMS: 1000, Request: req})
		if !strings.Contains(comp.Error, "unknown kind") {
			t.Errorf("lease kind %q: completion error %q, want unknown kind", kind, comp.Error)
		}
	}
}
