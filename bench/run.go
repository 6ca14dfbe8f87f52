package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// op is one closed-loop call of a workload.
type op struct {
	// Key describes the op's inputs canonically; golden.json maps it to
	// the digest of the op's output.
	Key string
	// Class is the op's mix category.
	Class string
	// Warm marks a serve op whose body the fixture stored during setup.
	Warm bool
	body any
}

// outcome is what a fixture reports for one op.
type outcome struct {
	digest string
	// hit reports that the result came from the store (serve only).
	hit bool
	// check validates the output's invariants; it runs untimed.
	check func() error
	// execS is the server-side execution time and polls the number of
	// status requests (serve only).
	execS float64
	polls int
}

// fixture is a workload's set-up state: the program under test, ready
// to take ops.
type fixture interface {
	do(ctx context.Context, client int, o op, sc scope) (outcome, error)
	// verify runs the checks that span ops, after a pass, and returns
	// the paper-anchored figure they rest on, if any, as context.
	verify() (string, error)
	close()
}

// workload is one input mix of the benchmark.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop callers.
	clients int
	// ops returns a client's op generator: each call yields the next
	// block (the workload's fixed mix, inputs drawn from the seed), or
	// nil when the generator has no fresh inputs left.
	ops func(seed int64, client int) func() []op
	// pool lists every op the generator can yield; golden.json holds a
	// digest for each.
	pool func() []op
	// build creates a fixture.
	build func(ctx context.Context, sc scope) (fixture, error)
	// warmup lists the ops set-up runs through a new fixture, checked
	// like measured ops.
	warmup func() []op
	// layers derives the workload's per-layer metrics, each with its
	// sample count, from a traced run. An error means a layer could not
	// be read, which makes the run incorrect.
	layers func(tr *tracedRun) (map[string]metricValue, error)
	// freshTracedFixture makes the traced pass start from a new fixture
	// (the serve store must start empty for the warm/cold split).
	freshTracedFixture bool
}

// sample is one completed op.
type sample struct {
	client, seq int
	block       int
	op          op
	opID        int
	dur         time.Duration
	out         outcome
	err         error
}

// pass is one closed-loop measurement over a workload's op lists.
type pass struct {
	samples []sample
	// walls is each client's time from the pass's start to the end of
	// its last op.
	walls []time.Duration
}

// opsPerSecond sums the clients' completion rates: the pass's
// throughput while every client is running.
func (p *pass) opsPerSecond() float64 {
	n := make([]int, len(p.walls))
	for _, s := range p.samples {
		if s.err == nil {
			n[s.client]++
		}
	}
	rate := 0.0
	for c, w := range p.walls {
		if w > 0 {
			rate += float64(n[c]) / w.Seconds()
		}
	}
	return rate
}

// okSeconds returns the durations in seconds of the ops that succeeded.
func (p *pass) okSeconds() []float64 {
	var v []float64
	for _, s := range p.samples {
		if s.err == nil {
			v = append(v, s.dur.Seconds())
		}
	}
	return v
}

// firstBlock returns the first client's first block, which every pass
// completes.
func (p *pass) firstBlock() []sample {
	var out []sample
	for _, s := range p.samples {
		if s.client == 0 && s.block == 0 {
			out = append(out, s)
		}
	}
	return out
}

// runPass drives every client's closed loop until the window has
// passed and the pass holds at least minOps ops, always ending on a
// block boundary so each run measures whole mixes. It first collects
// the garbage set-up left, so no pass pays for it.
func runPass(ctx context.Context, w *workload, fx fixture, seed int64, window time.Duration, minOps int, tr *tracer) *pass {
	runtime.GC()
	need := (minOps + w.clients - 1) / w.clients
	t0 := time.Now()
	deadline := t0.Add(window)
	var opIDs atomic.Int64
	per := make([][]sample, w.clients)
	walls := make([]time.Duration, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() { walls[c] = time.Since(t0) }()
			next := w.ops(seed, c)
			for seq, bn := 0, 0; len(per[c]) < need || time.Now().Before(deadline); bn++ {
				block := next()
				if block == nil {
					return
				}
				for _, o := range block {
					id := int(opIDs.Add(1))
					sc := tr.root(id, "op", o.Class)
					start := time.Now()
					out, err := fx.do(ctx, c, o, sc)
					dur := time.Since(start)
					sc.end()
					if err == nil {
						err = checkOutcome(o, out)
					}
					per[c] = append(per[c], sample{
						client: c, seq: seq, block: bn, op: o, opID: id,
						dur: dur, out: out, err: err,
					})
					seq++
				}
			}
		}(c)
	}
	wg.Wait()
	p := &pass{walls: walls}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// setup builds a fixture and runs the workload's warm-up ops through
// it, spread over the workload's clients.
func (w *workload) setup(ctx context.Context, sc scope) (fixture, error) {
	fx, err := w.build(ctx, sc)
	if err != nil {
		return nil, err
	}
	ops := w.warmup()
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += w.clients {
				out, err := fx.do(ctx, c, ops[i], scope{})
				if err == nil {
					err = checkOutcome(ops[i], out)
				}
				errs[i] = err
			}
		}(c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("warm-up op %s: %w", ops[i].Key, err)
		}
	}
	return fx, nil
}

// checkOutcome compares an op's output with its golden digest and runs
// its invariant checks.
func checkOutcome(o op, out outcome) error {
	want, ok := golden[o.Key]
	if !ok {
		return fmt.Errorf("no golden digest for %s", o.Key)
	}
	if out.digest != want {
		return fmt.Errorf("output digest %s, golden %s for %s", short(out.digest), short(want), o.Key)
	}
	if o.Warm && !out.hit {
		return fmt.Errorf("repeated body %s missed the store", o.Key)
	}
	if out.check != nil {
		return out.check()
	}
	return nil
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupRepeats = 3

// runResult is one run of one workload.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metricValue
	errs      []error
	// notes are context lines: paper-anchored figures, not gated.
	notes []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value.
	N int `json:"n"`
}

// stat is a per-layer value from n samples; runTraced adds the unit.
func stat(v float64, n int) metricValue { return metricValue{Value: v, N: n} }

// runUntraced sets the workload up setupRepeats times and measures the
// last fixture untraced: the end-to-end metrics.
func runUntraced(ctx context.Context, w *workload, seed int64, window time.Duration) (*runResult, error) {
	var setups []float64
	var fx fixture
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			fx.close()
		}
		t := time.Now()
		var err error
		if fx, err = w.setup(ctx, scope{}); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer fx.close()
	stop, rssc := make(chan struct{}), make(chan []float64)
	go func() { rssc <- sampleRSS(stop) }()
	p := runPass(ctx, w, fx, seed, window, minSamples(0.75), nil)
	close(stop)
	rss := <-rssc
	if len(rss) == 0 {
		return nil, fmt.Errorf("no resident set size samples from /proc/self/status")
	}
	printClasses(w.name, p)
	res := &runResult{metrics: map[string]metricValue{}}
	res.collect(p, fx)
	lat := sortedCopy(p.okSeconds())
	for name, v := range map[string]metricValue{
		"setup_s":    {median(setups), "s", len(setups)},
		"ops_per_s":  {p.opsPerSecond(), "1/s", len(lat)},
		"op_p50_s":   {quantile(lat, 0.5), "s", len(lat)},
		"op_p75_s":   {quantile(lat, 0.75), "s", len(lat)},
		"rss_p50_mb": {median(rss), "MiB", len(rss)},
	} {
		res.metrics[name] = v
	}
	if !tailOK(len(lat), 0.75) {
		res.errs = append(res.errs, fmt.Errorf("%d successful ops leave fewer than %d beyond p75", len(lat), minTail))
	}
	res.correct = res.failed == 0 && len(res.errs) == 0
	return res, nil
}

// collect counts a pass's ops, failed ops and cross-op check failures.
func (r *runResult) collect(p *pass, fx fixture) {
	r.attempted += len(p.samples)
	note, verr := fx.verify()
	if note != "" {
		r.notes = append(r.notes, note)
	}
	for _, s := range p.samples {
		if s.err != nil {
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("op %d (%s): %w", s.seq, s.op.Key, s.err))
		}
	}
	if verr != nil {
		r.failed++
		r.attempted++
		r.errs = append(r.errs, verr)
	}
}

// tracedRun is what a workload's per-layer metrics are derived from:
// an untraced pass and a traced pass over the same op lists.
type tracedRun struct {
	untraced, traced *pass
	spans            []span
	self             map[int]time.Duration
	fx               fixture
}

// spansNamed returns the spans with the given name that pass keep.
func (t *tracedRun) spansNamed(name string, keep func(span) bool) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s)
		}
	}
	return out
}

// selfMedian is the median self time in seconds of the named spans
// that pass keep, or 0 from 0 samples when the workload made no such
// call.
func (t *tracedRun) selfMedian(name string, keep func(span) bool) metricValue {
	return t.selfQuantile(name, keep, 0.5)
}

func (t *tracedRun) selfQuantile(name string, keep func(span) bool, q float64) metricValue {
	var v []float64
	for _, s := range t.spansNamed(name, keep) {
		v = append(v, t.self[s.ID].Seconds())
	}
	if len(v) == 0 {
		return stat(0, 0)
	}
	return stat(quantile(sortedCopy(v), q), len(v))
}

// runTraced measures the first half of the window untraced and the
// second half traced, over the same op lists, and derives the
// per-layer metrics. Both passes are checked against golden digests,
// and each traced op must reproduce its untraced twin's digest.
func runTraced(ctx context.Context, w *workload, seed int64, window time.Duration) (*runResult, *tracer, error) {
	tr := newTracer()
	setup := tr.root(0, "setup", "")
	fx, err := w.setup(ctx, setup)
	setup.end()
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	a := runPass(ctx, w, fx, seed, window/2, 0, nil)
	res := &runResult{metrics: map[string]metricValue{}}
	res.collect(a, fx)
	if w.freshTracedFixture {
		fx.close()
		if fx, err = w.setup(ctx, scope{}); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
	}
	b := runPass(ctx, w, fx, seed, window/2, 0, tr)
	res.collect(b, fx)

	spans := tr.snapshot()
	run := &tracedRun{untraced: a, traced: b, spans: spans, self: selfTimes(spans), fx: fx}
	overhead, pairs, mismatched := traceOverhead(a, b, spans)
	if mismatched > 0 {
		res.failed += mismatched
		res.errs = append(res.errs, fmt.Errorf("%d traced ops did not reproduce their untraced digest", mismatched))
	}
	values, err := w.layers(run)
	if err != nil {
		res.failed++
		res.attempted++
		res.errs = append(res.errs, err)
	}
	values["bench.trace_overhead_frac"] = stat(overhead, pairs)
	for _, m := range perLayerMetrics {
		// A layer the workload does not enter reads 0 from 0 samples.
		v := values[m.Name]
		v.Unit = m.Unit
		res.metrics[m.Name] = v
	}
	res.correct = res.failed == 0 && len(res.errs) == 0
	return res, tr, nil
}

// traceOverhead pairs each traced op with the untraced op at the same
// (client, position) and returns the traced pass's extra time as a
// share of the untraced time, leaving out diagnostic spans (work the
// traced pass adds to look inside an op), over the pairs it compared.
// It also counts pairs whose digests differ.
func traceOverhead(a, b *pass, spans []span) (frac float64, pairs, mismatched int) {
	type pos struct{ client, seq int }
	untraced := map[pos]sample{}
	for _, s := range a.samples {
		untraced[pos{s.client, s.seq}] = s
	}
	diag := map[int]time.Duration{}
	for _, s := range spans {
		if s.Diag {
			diag[s.Op] += s.dur()
		}
	}
	var ta, tb time.Duration
	for _, s := range b.samples {
		u, ok := untraced[pos{s.client, s.seq}]
		if !ok || u.err != nil || s.err != nil {
			continue
		}
		if u.out.digest != s.out.digest {
			mismatched++
			continue
		}
		pairs++
		ta += u.dur
		tb += s.dur - diag[s.opID]
	}
	if ta == 0 {
		return 0, 0, mismatched
	}
	return tb.Seconds()/ta.Seconds() - 1, pairs, mismatched
}

// sampleRSS reads the process's resident set size every 50ms until
// stop closes. The median of these samples is far steadier than the
// peak, which catches whichever garbage-collection cycle ran late.
func sampleRSS(stop <-chan struct{}) []float64 {
	var mib []float64
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return mib
		case <-t.C:
		}
		b, err := os.ReadFile("/proc/self/status")
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					mib = append(mib, kb/1024)
				}
			}
		}
	}
}

// cycler draws indices into a pool in rounds: every index once per
// round, in a new order each round. Inputs drawn this way cover their
// pool evenly over a run, so runs at different seeds do the same work
// in a different order and with different pairings.
type cycler struct {
	rng   *rand.Rand
	n     int
	round []int
}

func (c *cycler) next() int {
	if len(c.round) == 0 {
		c.round = c.rng.Perm(c.n)
	}
	i := c.round[0]
	c.round = c.round[1:]
	return i
}

// shuffled returns ops in an order drawn from rng.
func shuffled(rng *rand.Rand, ops []op) []op {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// printClasses writes each op class's share and latency quartiles to
// standard error, to show where the pass's percentiles fall.
func printClasses(name string, p *pass) {
	by := map[string][]float64{}
	for _, s := range p.samples {
		if s.err == nil {
			c := s.op.Class
			if s.out.hit {
				c += "/warm"
			}
			by[c] = append(by[c], s.dur.Seconds())
		}
	}
	names := make([]string, 0, len(by))
	for c := range by {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		q1, q2, q3 := quartiles(by[c])
		fmt.Fprintf(os.Stderr, "%s: class %-16s %3d ops  q1 %.4f  p50 %.4f  q3 %.4f s\n", name, c, len(by[c]), q1, q2, q3)
	}
}
