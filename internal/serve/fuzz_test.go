package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netsmith/internal/store"
)

// FuzzJobBody feeds arbitrary bytes through the POST /v1/jobs envelope
// split and every kind-table entry (strict decode, then the validator
// that plans a request without running it). None may panic on any
// input. The corpus starts from the serve tests' bodies.
func FuzzJobBody(f *testing.F) {
	for _, c := range badRequests {
		f.Add([]byte(c.body))
	}
	for _, body := range []string{
		smokeParetoBody,
		clusterReqBody,
		`{"grid":"4x5","class":"medium","objective":"shufopt","seed":3,"iterations":1500,"restarts":1,"population":2,"generations":1}`,
		`{"grid":"3x3","patterns":["uniform","tornado"],"rates":[0.02,0.1],"fidelity":"smoke","energy":true,"seed":9}`,
		`{"grid":"3x3","patterns":["hotspot:weight=0.8:hot=0+8"],"faults":["krouters:k=1:seed=3:at=150"],"seed":0}`,
		`{"grid":"3x3","energy_weights":[0,1.5],"robust_weights":[0,1],"rates":[0.02,0.3],"fidelity":"full"}` + "\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if kind, _, rest, err := splitJobBody(body); err == nil {
			_, _ = decodeKind(kind, rest)
		}
		for _, decode := range kinds {
			_, _ = decode(body)
		}
	})
}

// liveClusterRun returns an active cluster run on s, first submitting a
// two-shard matrix job when none is live; every shard of a new run is
// leased to worker "fuzz" (the TTL outlives the test).
func liveClusterRun(t *testing.T, s *Server) *clusterRun {
	t.Helper()
	s.mu.Lock()
	for _, cr := range s.clusters {
		if cr.activeLocked() {
			s.mu.Unlock()
			return cr
		}
	}
	s.mu.Unlock()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"kind":"matrix","grid":"3x3","rates":[0.02,0.05],"fidelity":"smoke","seed":3,"shards":2}`)))
	var v JobView
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
		t.Fatalf("POST cluster job: status %d %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		cr := s.clusters[v.ID]
		for cr != nil && s.claimFromLocked(cr, "fuzz", time.Now(), 0) != nil {
		}
		s.mu.Unlock()
		if cr != nil {
			return cr
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster job %s never registered", v.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzLeaseMessages sends arbitrary bytes to the three lease endpoints
// against a live cluster run: once as they are, and — when they decode —
// once aimed at each of the run's live leases. No message may panic,
// every answer must be 200, 204, 400 or 410, and the run's tally, its
// job's progress and the /metrics cell and busy totals must stay
// non-negative.
func FuzzLeaseMessages(f *testing.F) {
	for _, body := range []string{
		`{"worker":"w1"}`,
		`{"job_id":"j000001","lease_id":"L000001","worker":"w1","done":3}`,
		`{"job_id":"j000001","lease_id":"L000001","worker":"w1","stats":{"cells":4,"computed":2,"cache_hits":0,"store_errors":0},"synth_cached":true,"elapsed_ms":12}`,
		`{"stats":{"computed":-100}}`,
		`{"stats":{"computed":2147483647,"cache_hits":2147483647,"store_errors":2147483647},"points_synthesized":2147483647}`,
		`{"points_synthesized":-1,"elapsed_ms":-5}`,
		`{"elapsed_ms":9223372036854775807}`,
		`{"done":9223372036854775807}`,
		`{"error":"worker failed"}`,
		``,
		`not json`,
		`null`,
	} {
		f.Add([]byte(body))
	}
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, DisableSelfWork: true, LeaseTTL: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	send := func(t *testing.T, path string, body []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusGone:
		default:
			t.Fatalf("POST %s %q: status %d", path, body, rec.Code)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cr := liveClusterRun(t, s)
		for _, path := range []string{"/v1/cluster/claim", "/v1/cluster/heartbeat", "/v1/cluster/complete"} {
			send(t, path, body)
		}
		s.mu.Lock()
		var leases []string
		for _, ss := range cr.shards {
			if ss.state == shardLeased {
				leases = append(leases, ss.leaseID)
			}
		}
		s.mu.Unlock()
		var hb HeartbeatRequest
		var comp CompleteRequest
		hbOK, compOK := json.Unmarshal(body, &hb) == nil, json.Unmarshal(body, &comp) == nil
		for _, id := range leases {
			if hbOK {
				hb.JobID, hb.LeaseID = cr.jobID, id
				b, _ := json.Marshal(hb)
				send(t, "/v1/cluster/heartbeat", b)
			}
			if compOK {
				comp.JobID, comp.LeaseID = cr.jobID, id
				b, _ := json.Marshal(comp)
				send(t, "/v1/cluster/complete", b)
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if tl := cr.tally; tl.computed < 0 || tl.storeErrs < 0 || tl.pointsSynth < 0 {
			t.Fatalf("negative run tally %+v", tl)
		}
		if j := cr.job; j.progressDone < 0 || j.progressDone > j.progressTotal {
			t.Fatalf("job progress %d of %d", j.progressDone, j.progressTotal)
		}
		if m := s.stats; m.cellsComputed < 0 || m.cellsCached < 0 || m.busy < 0 {
			t.Fatalf("negative metrics: %d computed, %d cached, %v busy", m.cellsComputed, m.cellsCached, m.busy)
		}
	})
}
