package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"netsmith/internal/sim"
	"netsmith/internal/store"
)

// smokeParetoBody is the smallest served sweep exercising every stage:
// two energy weights, tiny synthesis budget, smoke cycle budgets.
const smokeParetoBody = `{"grid":"3x3","energy_weights":[0,1.5],"rates":[0.02,0.3],"fidelity":"smoke","seed":7,"synth_iterations":400}`

// paretoJob tags a pareto request body as a POST /v1/jobs body.
func paretoJob(body string) string { return `{"kind":"pareto",` + body[1:] }

func decodePareto(t *testing.T, v JobView) ParetoJobResult {
	t.Helper()
	var r ParetoJobResult
	if err := json.Unmarshal(v.Result, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestParetoJobLifecycle: a pareto job computes a frontier; the
// identical repeat is a cache hit with a byte-identical frontier; and
// the served frontier matches the in-process ExecutePareto path bit for
// bit.
func TestParetoJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t)
	code, j := postReq(t, ts.URL+"/v1/jobs", paretoJob(smokeParetoBody))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs kind=pareto status %d", code)
	}
	if j.Kind != "pareto" {
		t.Errorf("job kind %q, want pareto", j.Kind)
	}
	v := pollDone(t, ts.URL, j.ID)
	if v.State != StateDone {
		t.Fatalf("pareto job: state %q error %q", v.State, v.Error)
	}
	if v.CacheHit {
		t.Error("cold sweep reported cache_hit")
	}
	if v.Progress == nil || v.Progress.Total != 4 || v.Progress.Done != 4 {
		t.Errorf("pareto progress %+v, want 4/4 (2 synth units + 2 measure units)", v.Progress)
	}
	r := decodePareto(t, v)
	if r.Frontier == nil || len(r.Frontier.Points) == 0 || r.Frontier.Swept != 2 {
		t.Fatalf("degenerate served frontier: %+v", r.Frontier)
	}
	if r.Stats.Synthesized != 2 || r.Stats.FrontierCached {
		t.Errorf("cold sweep stats %+v, want 2 synthesized, frontier not cached", r.Stats)
	}
	for _, p := range r.Frontier.Points {
		if p.AvgPowerMW <= 0 || p.EnergyPerFlitPJ <= 0 || p.IdleShare+p.ActiveShare == 0 {
			t.Errorf("served point lacks energy accounting: %+v", p)
		}
	}
	if r.Frontier.Energy.AggregatePowerMW <= 0 {
		t.Errorf("served frontier lacks fleet energy: %+v", r.Frontier.Energy)
	}
	frontierBytes, err := json.Marshal(r.Frontier)
	if err != nil {
		t.Fatal(err)
	}

	// The warm store answers the repeat without recomputing,
	// byte-identically.
	code, j2 := postReq(t, ts.URL+"/v1/jobs", paretoJob(smokeParetoBody))
	if code != http.StatusAccepted {
		t.Fatalf("repeat POST status %d", code)
	}
	v2 := pollDone(t, ts.URL, j2.ID)
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("repeat sweep: state %q cache_hit %v, want done hit", v2.State, v2.CacheHit)
	}
	r2 := decodePareto(t, v2)
	if !r2.Stats.FrontierCached {
		t.Errorf("repeat sweep stats %+v, want frontier_cached", r2.Stats)
	}
	warmBytes, err := json.Marshal(r2.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frontierBytes, warmBytes) {
		t.Error("warm served frontier differs from cold served frontier")
	}

	// In-process path (the Client's local mode), cold store: identical
	// frontier bytes to the served runs.
	cold, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var req ParetoRequest
	if err := json.Unmarshal([]byte(smokeParetoBody), &req); err != nil {
		t.Fatal(err)
	}
	local, hit, err := ExecutePareto(context.Background(), cold, req, sim.Shard{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("cold ExecutePareto reported a cache hit")
	}
	localBytes, err := json.Marshal(local.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frontierBytes, localBytes) {
		t.Errorf("in-process frontier differs from served frontier:\n%s\n----\n%s", localBytes, frontierBytes)
	}

	// Metrics reflect the sweeps and the fleet energy accounting.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`netsmith_jobs_accepted_total{kind="pareto"} 2`,
		"netsmith_pareto_sweeps_total 2",
		`netsmith_pareto_points_total{result="kept"}`,
		`netsmith_pareto_points_total{result="pruned"}`,
		"netsmith_fleet_power_mw",
		"netsmith_fleet_idle_power_share 0.",
		"netsmith_fleet_active_power_share 0.",
		"netsmith_fleet_energy_per_flit_pj",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, "netsmith_fleet_power_mw 0\n") {
		t.Error("fleet power gauge is zero after two sweeps")
	}
	if strings.Contains(text, "netsmith_fleet_energy_per_flit_pj 0\n") {
		t.Error("fleet energy-per-flit gauge is zero after two sweeps")
	}
	_ = s
}

// TestParetoSSEProgress: the events stream reports per-point sweep
// progress (total = 2 x points) and terminates on the terminal event.
func TestParetoSSEProgress(t *testing.T) {
	_, ts := newTestServer(t)
	code, j := postReq(t, ts.URL+"/v1/jobs", paretoJob(smokeParetoBody))
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	final := events[len(events)-1]
	if final.State != StateDone {
		t.Fatalf("final SSE state %q (error %q)", final.State, final.Error)
	}
	if final.Progress == nil || final.Progress.Total != 4 || final.Progress.Done != 4 {
		t.Errorf("final SSE progress %+v, want 4/4", final.Progress)
	}
	lastDone := -1
	for _, e := range events {
		if e.Progress != nil {
			if e.Progress.Done < lastDone {
				t.Errorf("SSE progress went backwards: %d after %d", e.Progress.Done, lastDone)
			}
			lastDone = e.Progress.Done
		}
	}
}

// TestParetoCancelMidSweep: DELETE mid-sweep cancels between synthesis
// points; the job lands cancelled with partial progress, and a resumed
// identical POST completes reusing the cancelled run's persisted work.
func TestParetoCancelMidSweep(t *testing.T) {
	s, ts := newTestServer(t)
	// A wider, slower sweep so cancellation lands mid-run.
	body := `{"grid":"4x4","energy_weights":[0,0.5,1,1.5,2,2.5],"rates":[0.02,0.3],"fidelity":"smoke","seed":7,"synth_iterations":6000}`
	code, j := postReq(t, ts.URL+"/v1/jobs", paretoJob(body))
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		s.mu.Lock()
		done := s.jobs[j.ID].progressDone
		s.mu.Unlock()
		if done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pareto job never resolved a point")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, _ := doDelete(t, ts.URL+"/v1/jobs/"+j.ID); code != http.StatusOK {
		t.Fatalf("DELETE running pareto: status %d", code)
	}
	v := pollDone(t, ts.URL, j.ID)
	if v.State != StateCancelled {
		t.Fatalf("cancelled pareto job state %q (error %q)", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "cancel") {
		t.Errorf("cancelled job error %q", v.Error)
	}
	if v.Progress == nil || v.Progress.Done < 1 || v.Progress.Done >= v.Progress.Total {
		t.Errorf("cancelled pareto progress %+v, want partial", v.Progress)
	}

	// Resume: the identical request completes from the persisted points.
	code, j2 := postReq(t, ts.URL+"/v1/jobs", paretoJob(body))
	if code != http.StatusAccepted {
		t.Fatalf("resume POST status %d", code)
	}
	v2 := pollDone(t, ts.URL, j2.ID)
	if v2.State != StateDone {
		t.Fatalf("resumed pareto job: state %q error %q", v2.State, v2.Error)
	}
	r := decodePareto(t, v2)
	if r.Stats.SynthCached < 1 {
		t.Errorf("resumed sweep reused no synthesis results: %+v", r.Stats)
	}
}

// TestClusterParetoSweep: a pareto job fanned out across two cluster
// workers (self-work disabled, so they must execute the point leases)
// merges into a frontier byte-identical to a single-process sweep,
// with every point and cell accounted for exactly once.
func TestClusterParetoSweep(t *testing.T) {
	s, ts, dir := newClusterServer(t, Config{LeaseTTL: 2 * time.Second, DisableSelfWork: true})
	startWorker(t, ts.URL, dir, "pw1")
	startWorker(t, ts.URL, dir, "pw2")

	body := `{"kind":"pareto",` + smokeParetoBody[1:len(smokeParetoBody)-1] + `,"shards":2}`
	code, j := postReq(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	v := pollDone(t, ts.URL, j.ID)
	if v.State != StateDone {
		t.Fatalf("cluster pareto job state %q (error %q)", v.State, v.Error)
	}
	r := decodePareto(t, v)
	if r.Shards != 2 {
		t.Errorf("result shards = %d, want 2", r.Shards)
	}
	if r.Stats.Points != 2 || r.Stats.Synthesized+r.Stats.SynthCached != 2 {
		t.Errorf("cluster pareto stats %+v, want 2 points fully accounted", r.Stats)
	}
	if r.Stats.Synthesized == 0 {
		t.Error("workers synthesized nothing — did self-work run?")
	}
	if r.Stats.CellsComputed+r.Stats.CellsCached != r.Stats.Cells {
		t.Errorf("cluster pareto cell split inconsistent: %+v", r.Stats)
	}
	clusterBytes, err := json.Marshal(r.Frontier)
	if err != nil {
		t.Fatal(err)
	}

	// Single-process reference over a fresh store.
	cold, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var req ParetoRequest
	if err := json.Unmarshal([]byte(smokeParetoBody), &req); err != nil {
		t.Fatal(err)
	}
	local, _, err := ExecutePareto(context.Background(), cold, req, sim.Shard{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	localBytes, err := json.Marshal(local.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterBytes, localBytes) {
		t.Errorf("cluster frontier differs from single-process sweep:\n%s\n----\n%s", clusterBytes, localBytes)
	}

	// Both workers were seen; the repeat POST is a pure frontier hit.
	s.mu.Lock()
	_, saw1 := s.workersSeen["pw1"]
	_, saw2 := s.workersSeen["pw2"]
	s.mu.Unlock()
	if !saw1 || !saw2 {
		t.Errorf("worker liveness: pw1=%v pw2=%v", saw1, saw2)
	}
	code, j2 := postReq(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("repeat POST status %d", code)
	}
	v2 := pollDone(t, ts.URL, j2.ID)
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("repeat cluster sweep: state %q cache_hit %v, want done hit", v2.State, v2.CacheHit)
	}
	if r2 := decodePareto(t, v2); !r2.Stats.FrontierCached {
		t.Errorf("repeat cluster sweep stats %+v, want frontier_cached", r2.Stats)
	}
}

// TestParetoRequestValidation: statically invalid sweeps 400 at POST
// time instead of failing in the queue.
func TestParetoRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	// 65 distinct energy weights: one over the point cap.
	var wide strings.Builder
	wide.WriteString(`{"grid":"3x3","energy_weights":[0`)
	for i := 1; i <= 64; i++ {
		fmt.Fprintf(&wide, ",%d", i)
	}
	wide.WriteString(`]}`)
	for name, body := range map[string]string{
		"missing grid":      `{"energy_weights":[0,1]}`,
		"bad grid":          `{"grid":"0x9"}`,
		"bad class":         `{"grid":"3x3","class":"giant"}`,
		"duplicate weights": `{"grid":"3x3","energy_weights":[1,1]}`,
		"negative weight":   `{"grid":"3x3","energy_weights":[-1]}`,
		"unsorted rates":    `{"grid":"3x3","rates":[0.2,0.1]}`,
		"bad fidelity":      `{"grid":"3x3","fidelity":"warp"}`,
		"too many points":   wide.String(),
		"unknown field":     `{"grid":"3x3","bogus":1}`,
		"negative shards":   `{"grid":"3x3","shards":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(paretoJob(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}
