package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"netsmith"
	"netsmith/internal/exp"
	"netsmith/internal/serve"
	"netsmith/internal/store"
)

const (
	serveClients = 2
	// servePoll is the clients' job-status poll interval.
	servePoll = 2 * time.Millisecond
	// serveWarmSeeds is the number of pre-stored bodies per job kind.
	serveWarmSeeds = 3
	// serveMaxBlocks bounds a client's op list: each block takes fresh
	// bodies for its cold ops from a pool this many blocks deep.
	serveMaxBlocks = 12
)

// serveMix is one block of a client's op list: per job kind, how many
// bodies come from the pre-stored (warm) pool, how many are fresh
// (cold), and how many take turns between the two from block to block.
// Sorted by latency, a block is 40% quick jobs (synth, sharded and
// pareto), 20% warm matrix jobs and 40% cold matrix jobs, so p50 falls
// inside the warm matrix jobs and p75 inside the cold ones.
var serveMix = []struct {
	kind                    string
	warm, cold, alternating int
}{
	{"matrix", 2, 4, 0},
	{"synth", 1, 1, 0},
	{"sharded", 0, 0, 1},
	{"pareto", 0, 0, 1},
}

// serveSeedBase separates every kind's seeds, and the warm pool's from
// each client's cold pool, so no two bodies share a stored result: a
// synth body and a matrix body's ns synthesis at one seed would.
var serveSeedBase = map[string]int64{"matrix": 10_000, "sharded": 20_000, "synth": 30_000, "pareto": 40_000}

func serveSeed(kind string, client, i int) int64 {
	return serveSeedBase[kind] + int64(client+1)*1000 + int64(i)
}

var synthObjectives = []string{"latop", "scop", "shufopt"}

// serveVariants is how many bodies of a kind differ by more than their
// seed.
func serveVariants(kind string) int {
	if kind == "synth" {
		return len(synthObjectives)
	}
	return 1
}

// serveBody builds the job body for a kind and seed; i picks the synth
// objective.
func serveBody(kind string, seed int64, i int) any {
	s := seed
	switch kind {
	case "matrix":
		return netsmith.MatrixJob{
			Grid: "4x5", Class: "medium", Topos: []string{"mesh", "ns"},
			Patterns: []string{"uniform", "shuffle"},
			Rates:    []float64{0.02, 0.08, 0.14}, Fidelity: "fast", Seed: &s,
		}
	case "sharded":
		return netsmith.MatrixJob{Grid: "4x4", Topos: []string{"mesh"}, Fidelity: "fast", Seed: &s, Shards: 2}
	case "synth":
		return netsmith.SynthJob{Grid: "4x5", Class: "medium", Objective: synthObjectives[i%len(synthObjectives)], Iterations: 20000, Seed: seed}
	case "pareto":
		return netsmith.ParetoJob{Grid: "3x3", EnergyWeights: []float64{0, 1, 2}, Fidelity: "smoke", Seed: &s}
	}
	panic("bench: unknown serve job kind " + kind)
}

func serveOp(kind string, seed int64, i int, warm bool) op {
	body := serveBody(kind, seed, i)
	return op{Key: opKey("serve", map[string]any{"kind": kind, "body": body}), Class: kind, Warm: warm, body: body}
}

// serveWarmPool is the bodies set-up stores; client -1 is the shared
// warm range.
func serveWarmPool() []op {
	var ops []op
	for _, m := range serveMix {
		for i := 0; i < serveWarmSeeds; i++ {
			ops = append(ops, serveOp(m.kind, serveSeed(m.kind, -1, i), i, true))
		}
	}
	return ops
}

var serveWorkload = &workload{
	name:    "serve",
	why:     "served /v1/jobs under two closed-loop clients: queueing, leases, store hashing and IO, JSON; warm jobs skip the engine",
	clients: serveClients,
	ops: func(seed int64, client int) func() []op {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
		// Each kind's cold bodies come from the client's own seed range
		// in an order drawn from the seed, so no cold body repeats
		// within a run and every run has the same warm/cold split.
		// Body j of a kind is variant j%variants (the synth objective);
		// cold ops take the variants in turn, so every run has the same
		// objective mix.
		queues := map[string][][]int{}
		taken := map[string]int{}
		for _, m := range serveMix {
			q := make([][]int, serveVariants(m.kind))
			for _, j := range rng.Perm((m.cold + m.alternating) * serveMaxBlocks) {
				q[j%len(q)] = append(q[j%len(q)], j)
			}
			queues[m.kind] = q
		}
		warm := map[string][]op{}
		for _, o := range serveWarmPool() {
			warm[o.Class] = append(warm[o.Class], o)
		}
		blockNo := 0
		return func() []op {
			var block []op
			for k, m := range serveMix {
				nWarm, nCold := m.warm, m.cold
				if m.alternating > 0 {
					if (blockNo+k)%2 == 0 {
						nWarm += m.alternating
					} else {
						nCold += m.alternating
					}
				}
				for i := 0; i < nWarm; i++ {
					pool := warm[m.kind]
					block = append(block, pool[rng.Intn(len(pool))])
				}
				for i := 0; i < nCold; i++ {
					q := queues[m.kind]
					r := taken[m.kind] % len(q)
					if len(q[r]) == 0 {
						return nil
					}
					j := q[r][0]
					q[r] = q[r][1:]
					taken[m.kind]++
					block = append(block, serveOp(m.kind, serveSeed(m.kind, client, j), j, false))
				}
			}
			blockNo++
			return shuffled(rng, block)
		}
	},
	pool: func() []op {
		ops := serveWarmPool()
		for c := 0; c < serveClients; c++ {
			for _, m := range serveMix {
				for j := 0; j < (m.cold+m.alternating)*serveMaxBlocks; j++ {
					ops = append(ops, serveOp(m.kind, serveSeed(m.kind, c, j), j, false))
				}
			}
		}
		return ops
	},
	// Set-up stores the warm pool: each body's first run is cold.
	warmup: func() []op {
		ops := serveWarmPool()
		for i := range ops {
			ops[i].Warm = false
		}
		return ops
	},
	build:              buildServe,
	layers:             serveLayers,
	freshTracedFixture: true,
}

// serveFixture is an in-process coordinator over a fresh store, with
// two cluster workers for sharded jobs and one remote-mode Client per
// closed-loop caller.
type serveFixture struct {
	dir     string
	st      *store.Store
	srv     *serve.Server
	ts      *httptest.Server
	stop    context.CancelFunc
	workers sync.WaitGroup
	clients []*netsmith.Client
	httpc   *http.Client
}

func buildServe(ctx context.Context, sc scope) (fixture, error) {
	dir, err := os.MkdirTemp("", "netsmith-bench-store-")
	if err != nil {
		return nil, err
	}
	f := &serveFixture{dir: dir, httpc: &http.Client{Timeout: time.Minute}}
	if f.st, err = store.Open(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.srv, err = serve.New(serve.Config{Store: f.st, Workers: 2, LeaseTTL: 2 * time.Second, DisableSelfWork: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.ts = httptest.NewServer(f.srv.Handler())
	wctx, stop := context.WithCancel(ctx)
	f.stop = stop
	for i := 0; i < 2; i++ {
		f.workers.Add(1)
		go func(i int) {
			defer f.workers.Done()
			_ = serve.RunWorker(wctx, serve.WorkerConfig{
				Coordinator: f.ts.URL, Store: f.st,
				Name: fmt.Sprintf("bench-worker-%d", i), Poll: 10 * time.Millisecond,
			})
		}(i)
	}
	for i := 0; i < serveClients; i++ {
		c, err := netsmith.NewClient(netsmith.WithServer(f.ts.URL), netsmith.WithPollInterval(servePoll))
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

func (f *serveFixture) close() {
	f.stop()
	f.workers.Wait()
	f.srv.Close()
	f.ts.Close()
	os.RemoveAll(f.dir)
}

func (f *serveFixture) verify() (string, error) { return "", nil }

func (f *serveFixture) do(ctx context.Context, client int, o op, sc scope) (outcome, error) {
	if sc.tr != nil {
		return f.raw(ctx, o, sc)
	}
	c := f.clients[client]
	switch job := o.body.(type) {
	case netsmith.SynthJob:
		res, hit, err := c.Synth(ctx, job)
		if err != nil {
			return outcome{}, err
		}
		out := synthOutcome(job, res.Topology)
		out.hit = hit
		return out, nil
	case netsmith.MatrixJob:
		res, hit, err := c.Matrix(ctx, job)
		if err != nil {
			return outcome{}, err
		}
		out, err := matrixOutcome(res.Matrix)
		out.hit = hit
		return out, err
	case netsmith.ParetoJob:
		res, hit, err := c.Pareto(ctx, job)
		if err != nil {
			return outcome{}, err
		}
		out, err := paretoOutcome(res.Frontier)
		out.hit = hit
		return out, err
	}
	return outcome{}, fmt.Errorf("unknown body in %s", o.Key)
}

func paretoOutcome(fr *netsmith.Frontier) (outcome, error) {
	var buf bytes.Buffer
	if err := exp.FrontierJSON(&buf, fr); err != nil {
		return outcome{}, err
	}
	return outcome{digest: digest(buf.Bytes())}, nil
}

// raw runs a job as the HTTP exchanges the remote Client makes — one
// POST /v1/jobs, then GET /v1/jobs/{id} at the poll interval until the
// job ends — with a span around each exchange.
func (f *serveFixture) raw(ctx context.Context, o op, sc scope) (outcome, error) {
	kind := "matrix"
	switch o.body.(type) {
	case netsmith.SynthJob:
		kind = "synth"
	case netsmith.ParetoJob:
		kind = "pareto"
	}
	raw, err := json.Marshal(o.body)
	if err != nil {
		return outcome{}, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return outcome{}, err
	}
	fields["kind"], _ = json.Marshal(kind)
	body, err := json.Marshal(fields)
	if err != nil {
		return outcome{}, err
	}
	ps := sc.child("serve.post")
	var v netsmith.JobView
	err = f.exchange(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &v)
	ps.end()
	if err != nil {
		return outcome{}, err
	}
	polls := 0
	t := time.NewTicker(servePoll)
	defer t.Stop()
	for v.State != serve.StateDone {
		if v.State == serve.StateFailed || v.State == serve.StateCancelled {
			return outcome{}, fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
		}
		select {
		case <-ctx.Done():
			return outcome{}, ctx.Err()
		case <-t.C:
		}
		gs := sc.child("serve.poll")
		err := f.exchange(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil, http.StatusOK, &v)
		gs.end()
		polls++
		if err != nil {
			return outcome{}, err
		}
	}
	var out outcome
	switch kind {
	case "synth":
		var res netsmith.SynthJobResult
		if err = json.Unmarshal(v.Result, &res); err == nil {
			out = synthOutcome(o.body.(netsmith.SynthJob), res.Topology)
		}
	case "matrix":
		var res netsmith.MatrixJobOutcome
		if err = json.Unmarshal(v.Result, &res); err == nil {
			out, err = matrixOutcome(res.Matrix)
		}
	case "pareto":
		var res netsmith.ParetoJobOutcome
		if err = json.Unmarshal(v.Result, &res); err == nil {
			out, err = paretoOutcome(res.Frontier)
		}
	}
	out.hit, out.polls, out.execS = v.CacheHit, polls, float64(v.ElapsedMS)/1000
	return out, err
}

// exchange performs one HTTP call and decodes a JSON reply.
func (f *serveFixture) exchange(ctx context.Context, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, f.ts.URL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// scrape reads gauges and counters from the server's /metrics page; a
// page without one of the named samples is an error.
func (f *serveFixture) scrape(names ...string) (map[string]float64, error) {
	resp, err := f.httpc.Get(f.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return m, nil
}

// storeTimes replays the run's stored blobs through the store: it
// re-hashes each blob's key, puts the value into a scratch store, and
// gets it back. It returns the median seconds of each call and the
// mean blob size in KiB, each over every blob.
func (f *serveFixture) storeTimes() (map[string]metricValue, error) {
	hashes, err := f.st.Hashes()
	if err != nil {
		return nil, err
	}
	if len(hashes) == 0 {
		return nil, fmt.Errorf("the store holds no blobs")
	}
	scratch, err := os.MkdirTemp("", "netsmith-bench-scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	dst, err := store.Open(scratch)
	if err != nil {
		return nil, err
	}
	var th, tp, tg, size []float64
	for _, h := range hashes {
		// Blobs are self-describing: {"key": ..., "value": ...}.
		b, err := os.ReadFile(filepath.Join(f.dir, "objects", h[:2], h+".json"))
		if err != nil {
			return nil, err
		}
		var blob struct {
			Key struct {
				Kind    string          `json:"kind"`
				Schema  int             `json:"schema"`
				Payload json.RawMessage `json:"payload"`
			} `json:"key"`
			Value json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal(b, &blob); err != nil {
			return nil, err
		}
		key := store.Key{Kind: blob.Key.Kind, Schema: blob.Key.Schema, Payload: blob.Key.Payload}
		t := time.Now()
		got, err := key.Hash()
		th = append(th, time.Since(t).Seconds())
		if err != nil || got != h {
			return nil, fmt.Errorf("blob %s re-hashes to %s (%v)", short(h), short(got), err)
		}
		t = time.Now()
		err = dst.Put(key, blob.Value)
		tp = append(tp, time.Since(t).Seconds())
		if err != nil {
			return nil, err
		}
		var back json.RawMessage
		t = time.Now()
		hit, err := dst.Get(key, &back)
		tg = append(tg, time.Since(t).Seconds())
		if err != nil || !hit {
			return nil, fmt.Errorf("blob %s: stored value not found (%v)", short(h), err)
		}
		size = append(size, float64(len(b))/1024)
	}
	n := len(hashes)
	return map[string]metricValue{
		"store.key_hash_s": stat(median(th), n),
		"store.put_s":      stat(median(tp), n),
		"store.get_s":      stat(median(tg), n),
		"store.blob_kb":    stat(mean(size), n),
	}, nil
}

// splitWarm returns the latencies in seconds of the ops that reported
// a cache hit (warm) and of those that did not (cold).
func splitWarm(samples []sample) (warm, cold []float64) {
	for _, s := range samples {
		switch {
		case s.err != nil:
		case s.out.hit:
			warm = append(warm, s.dur.Seconds())
		default:
			cold = append(cold, s.dur.Seconds())
		}
	}
	return warm, cold
}

// medianStat is the median of v with its sample count, or 0 from 0
// samples.
func medianStat(v []float64) metricValue {
	if len(v) == 0 {
		return stat(0, 0)
	}
	return stat(median(v), len(v))
}

func serveLayers(t *tracedRun) (map[string]metricValue, error) {
	m := map[string]metricValue{
		"serve.post_s": t.selfMedian("serve.post", nil),
		"serve.poll_s": t.selfMedian("serve.poll", nil),
	}
	warm, cold := splitWarm(t.untraced.samples)
	m["serve.warm_op_p50_s"], m["serve.cold_op_p50_s"] = medianStat(warm), medianStat(cold)

	var polls, wait, exec, execWarm, execSharded, execPareto []float64
	for _, s := range t.traced.samples {
		if s.err != nil {
			continue
		}
		polls = append(polls, float64(s.out.polls))
		wait = append(wait, s.dur.Seconds()-s.out.execS)
		switch {
		case s.out.hit:
			execWarm = append(execWarm, s.out.execS)
		case s.op.Class == "sharded":
			execSharded = append(execSharded, s.out.execS)
		case s.op.Class == "pareto":
			execPareto = append(execPareto, s.out.execS)
		default:
			exec = append(exec, s.out.execS)
		}
	}
	if len(polls) > 0 {
		m["serve.polls_per_job"] = stat(mean(polls), len(polls))
	}
	m["serve.wait_s"] = medianStat(wait)
	m["serve.exec_s"] = medianStat(exec)
	m["serve.exec_warm_s"] = medianStat(execWarm)
	m["serve.exec_sharded_s"] = medianStat(execSharded)
	m["serve.exec_pareto_s"] = medianStat(execPareto)

	f := t.fx.(*serveFixture)
	scraped, err := f.scrape("netsmith_cache_hit_ratio", "netsmith_jobs_shed_total", "netsmith_rate_limited_total")
	if err != nil {
		return m, err
	}
	m["store.cell_hit_ratio"] = stat(scraped["netsmith_cache_hit_ratio"], 1)
	m["serve.refused"] = stat(scraped["netsmith_jobs_shed_total"]+scraped["netsmith_rate_limited_total"], 1)
	st, err := f.storeTimes()
	if err != nil {
		return m, fmt.Errorf("store replay: %w", err)
	}
	for k, v := range st {
		m[k] = v
	}
	return m, nil
}
