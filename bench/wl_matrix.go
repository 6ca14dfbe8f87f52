package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"netsmith"
	"netsmith/internal/exp"
	"netsmith/internal/expert"
	"netsmith/internal/fault"
	"netsmith/internal/layout"
	"netsmith/internal/route"
	"netsmith/internal/sim"
	"netsmith/internal/synth"
	"netsmith/internal/traffic"
	"netsmith/internal/vc"
)

// matrixPatterns are the traffic registry's patterns (trace replay is
// file-backed and not accepted by the job API). Each op runs a pair of
// them; pair k is patterns 2k and 2k+1 (mod 9), so the nine pairs of a
// block's fault-free ops run every pattern twice.
var matrixPatterns = []string{"uniform", "shuffle", "memory", "transpose", "bitcomp", "bitrev", "tornado", "hotspot", "bursty"}

const (
	// matrixPlainPerBlock fault-free ops precede one faulted op in each
	// block, so both percentiles fall inside the fault-free ops.
	matrixPlainPerBlock = 9
	matrixFault         = "klinks:k=2:at=3000"
)

// matrixRates run from near-idle (fast-forward) to past saturation
// (full stepping).
var matrixRates = []float64{0.02, 0.08, 0.14, 0.20}

// matrixSeeds is the pool each op draws its matrix seed from; the seed
// also fixes the ns topology's synthesis.
var matrixSeeds = []int64{11, 12, 13, 14}

var matrixWorkload = &workload{
	name:    "matrix",
	why:     "scenario matrix alone: one caller, local Client.Matrix, mesh+ns with energy counters; time goes to the sim engine",
	clients: 1,
	ops: func(seed int64, client int) func() []op {
		rng := rand.New(rand.NewSource(seed))
		// One seed cycle per fault-free pair, one for the faulted ops.
		seeds := make([]cycler, matrixPlainPerBlock+1)
		for i := range seeds {
			seeds[i] = cycler{rng: rng, n: len(matrixSeeds)}
		}
		blockNo := 0
		return func() []op {
			var block []op
			for k := 0; k < matrixPlainPerBlock; k++ {
				block = append(block, matrixOp(k, false, matrixSeeds[seeds[k].next()]))
			}
			block = append(block, matrixOp(blockNo%len(matrixPatterns), true, matrixSeeds[seeds[matrixPlainPerBlock].next()]))
			blockNo++
			return shuffled(rng, block)
		}
	},
	pool: func() []op {
		var ops []op
		for k := range matrixPatterns {
			for _, faulted := range []bool{false, true} {
				for _, s := range matrixSeeds {
					ops = append(ops, matrixOp(k, faulted, s))
				}
			}
		}
		return ops
	},
	warmup: func() []op { return []op{matrixOp(0, false, matrixSeeds[0])} },
	build: func(ctx context.Context, sc scope) (fixture, error) {
		c, err := netsmith.NewClient()
		if err != nil {
			return nil, err
		}
		return &matrixFixture{client: c}, nil
	},
	layers: matrixLayers,
}

func matrixOp(pair int, faulted bool, seed int64) op {
	s := seed
	n := len(matrixPatterns)
	job := netsmith.MatrixJob{
		Grid: "4x5", Class: "medium",
		Topos:    []string{"mesh", "ns"},
		Patterns: []string{matrixPatterns[(2*pair)%n], matrixPatterns[(2*pair+1)%n]},
		Rates:    matrixRates, Fidelity: sim.FidelityFast,
		Seed: &s, Energy: true,
	}
	class := "plain"
	if faulted {
		job.Faults = []string{matrixFault}
		class = "fault"
	}
	return op{Key: opKey("matrix", job), Class: class, body: job}
}

type matrixFixture struct {
	client *netsmith.Client
	// satRatios are NS-over-mesh saturation throughputs of fault-free
	// curves, the paper's Figure 6/7 comparison.
	satRatios []float64
}

func (f *matrixFixture) close() {}

func (f *matrixFixture) do(ctx context.Context, _ int, o op, sc scope) (outcome, error) {
	job := o.body.(netsmith.MatrixJob)
	var m *sim.MatrixResult
	if sc.tr != nil {
		out, m, err := matrixTraced(ctx, job, sc)
		if err == nil {
			f.noteSaturation(m)
		}
		return out, err
	}
	res, _, err := f.client.Matrix(ctx, job)
	if err != nil {
		return outcome{}, err
	}
	m = res.Matrix
	f.noteSaturation(m)
	return matrixOutcome(m)
}

// noteSaturation records, per fault-free pattern, the ns curve's
// saturation throughput over the mesh curve's. Curves are
// topology-major, mesh first.
func (f *matrixFixture) noteSaturation(m *sim.MatrixResult) {
	half := len(m.Curves) / 2
	for i := 0; i < half; i++ {
		mesh, ns := m.Curves[i], m.Curves[half+i]
		if (mesh.Fault == "" || mesh.Fault == "none") && mesh.SaturationPerNs > 0 {
			f.satRatios = append(f.satRatios, ns.SaturationPerNs/mesh.SaturationPerNs)
		}
	}
}

func (f *matrixFixture) verify() (string, error) {
	if len(f.satRatios) == 0 {
		return "", nil
	}
	return fmt.Sprintf("ns/mesh saturation throughput, median of %d fault-free curves: %.3f",
		len(f.satRatios), median(f.satRatios)), nil
}

// matrixOutcome digests the matrix JSON and checks that no cell
// stalled.
func matrixOutcome(m *sim.MatrixResult) (outcome, error) {
	var buf bytes.Buffer
	if err := exp.MatrixJSON(&buf, m); err != nil {
		return outcome{}, err
	}
	return outcome{
		digest: digest(buf.Bytes()),
		check: func() error {
			for _, c := range m.Curves {
				for _, p := range c.Points {
					if p.Stalled {
						return fmt.Errorf("%s/%s/%s stalled at rate %g", c.Topology, c.Pattern, c.Fault, p.OfferedRate)
					}
				}
			}
			return nil
		},
	}, nil
}

// matrixPlan is a matrix job resolved into RunMatrix inputs the way the
// serve package resolves it for the knobs this workload sets.
type matrixPlan struct {
	grid     *layout.Grid
	class    layout.Class
	seed     int64
	patterns []sim.PatternFactory
	faults   []sim.FaultFactory
	base     sim.Config
}

func planMatrix(job netsmith.MatrixJob) (*matrixPlan, error) {
	g, err := layout.ParseGrid(job.Grid)
	if err != nil {
		return nil, err
	}
	cl, err := layout.ParseClass(job.Class)
	if err != nil {
		return nil, err
	}
	p := &matrixPlan{grid: g, class: cl, seed: *job.Seed}
	env, reg := traffic.GridEnv(g), traffic.Default()
	for _, arg := range job.Patterns {
		name, params, err := traffic.ParsePatternArg(arg)
		if err != nil {
			return nil, err
		}
		p.patterns = append(p.patterns, sim.RegistryFactory(reg, name, env, params))
	}
	if len(job.Faults) > 0 {
		freg := fault.Default()
		p.faults = []sim.FaultFactory{sim.FaultRegistryFactory(freg, "none", nil)}
		for _, arg := range job.Faults {
			name, params, err := fault.ParseScheduleArg(arg)
			if err != nil {
				return nil, err
			}
			p.faults = append(p.faults, sim.FaultRegistryFactory(freg, name, params))
		}
	}
	if err := sim.ApplyFidelity(&p.base, job.Fidelity); err != nil {
		return nil, err
	}
	p.base.CollectEnergy = job.Energy
	return p, nil
}

// matrixTraced re-executes Client.Matrix as the public calls it is made
// of — exp.MatrixSetups split into synthesis, routing and VC
// assignment, then sim.RunMatrix — and afterwards replays every cell
// through sim.Run to time cells one by one and count their events.
func matrixTraced(ctx context.Context, job netsmith.MatrixJob, sc scope) (outcome, *sim.MatrixResult, error) {
	p, err := planMatrix(job)
	if err != nil {
		return outcome{}, nil, err
	}
	setups, err := tracedSetups(job.Topos, p, sc.child("exp.matrix_setups"))
	if err != nil {
		return outcome{}, nil, err
	}
	for _, s := range setups {
		fp := sc.diag("sim.fingerprint", "")
		_, err := s.Fingerprint()
		fp.end()
		if err != nil {
			return outcome{}, nil, err
		}
	}
	run := sc.child("sim.run_matrix")
	m, err := sim.RunMatrix(sim.MatrixConfig{
		Setups: setups, Patterns: p.patterns, Faults: p.faults,
		Rates: job.Rates, Base: p.base, Seed: p.seed, Ctx: ctx,
	})
	run.end()
	if err != nil {
		return outcome{}, nil, err
	}
	out, err := matrixOutcome(m)
	if err == nil {
		err = replayCells(p, setups, job.Rates, m, sc)
	}
	return out, m, err
}

// tracedSetups is exp.MatrixSetups with a span around each layer call:
// mesh gets NDBT routing, ns is synthesized then MCLB-routed, and both
// get a verified VC assignment, all at the matrix seed.
func tracedSetups(topos []string, p *matrixPlan, sc scope) ([]*sim.Setup, error) {
	defer sc.end()
	var setups []*sim.Setup
	for _, name := range topos {
		var t *netsmith.Topology
		var r *route.Routing
		var err error
		switch name {
		case "mesh":
			t = expert.Mesh(p.grid)
			rs := sc.child("route.ndbt")
			if r, err = route.NDBT(t, p.seed); err == nil {
				err = r.Validate(t)
			}
			rs.end()
		case "ns":
			gs := sc.child("synth.cached_generate")
			res, _, gerr := synth.CachedGenerate(nil, synth.MatrixNSConfig(p.grid, p.class, 0, 0, p.seed, 20000, 0, 0))
			gs.end()
			if gerr != nil {
				return nil, gerr
			}
			t = res.Topology
			rs := sc.child("route.mclb")
			if r, err = route.MCLB(t, route.MCLBOptions{Seed: p.seed}); err == nil {
				err = r.Validate(t)
			}
			rs.end()
		default:
			return nil, fmt.Errorf("unknown topology %q", name)
		}
		if err != nil {
			return nil, err
		}
		vs := sc.child("vc.assign")
		a, err := vc.Assign(r, vc.Options{Seed: p.seed})
		if err == nil {
			err = a.Verify(r)
		}
		vs.end()
		if err != nil {
			return nil, err
		}
		setups = append(setups, &sim.Setup{Topo: t, Routing: r, VC: a})
	}
	return setups, nil
}

// replayCells re-runs each matrix cell alone through sim.Run with the
// seed, pattern instance and fault schedule RunMatrix gave it, checks
// that it reproduces the cell, and records its time and its simulated
// events (buffer reads plus writes).
func replayCells(p *matrixPlan, setups []*sim.Setup, rates []float64, m *sim.MatrixResult, sc scope) error {
	faults := p.faults
	if len(faults) == 0 {
		faults = []sim.FaultFactory{sim.FaultRegistryFactory(fault.Default(), "none", nil)}
	}
	nP, nF, nR := len(p.patterns), len(faults), len(rates)
	for i := 0; i < len(setups)*nP*nF*nR; i++ {
		ri, fi := i%nR, (i/nR)%nF
		pi, ti := (i/(nR*nF))%nP, i/(nR*nF*nP)
		cfg := p.base
		st := setups[ti]
		cfg.Topo, cfg.Routing, cfg.VC = st.Topo, st.Routing, st.VC
		cfg.InjectionRate = rates[ri]
		cfg.Seed = p.seed + int64(i)*7919
		cfg.CollectEnergy = true
		sched, err := faults[fi].New(st.Topo)
		if err != nil {
			return err
		}
		cfg.FaultSchedule = sched
		if cfg.Pattern, err = p.patterns[pi].New(); err != nil {
			return err
		}
		cell := sc.diag("sim.replay", cellClass(rates[ri], !sched.Empty()))
		res, err := sim.Run(cfg)
		if err != nil {
			cell.end()
			return err
		}
		cell.endCount(events(res))
		want := m.Curves[(ti*nP+pi)*nF+fi].Points[ri]
		if res.Stalled || res.AvgLatencyNs != want.AvgLatencyNs || res.AcceptedPerNs != want.AcceptedPerNs {
			return fmt.Errorf("replay of cell %d does not reproduce the matrix", i)
		}
	}
	return nil
}

// cellClass files a cell under the engine path it exercises most: the
// fault epochs, idle fast-forward at the lowest rate, or full stepping
// at or past saturation.
func cellClass(rate float64, faulted bool) string {
	switch {
	case faulted:
		return "fault"
	case rate <= matrixRates[0]:
		return "idle"
	case rate >= 0.14:
		return "saturated"
	}
	return "loaded"
}

// events counts a run's simulated flit events: buffer writes plus
// reads over every router.
func events(res *sim.Result) int64 {
	var n uint64
	if e := res.Energy; e != nil {
		for r := range e.BufReads {
			n += e.BufReads[r] + e.BufWrites[r]
		}
	}
	return int64(n)
}

func matrixLayers(t *tracedRun) (map[string]metricValue, error) {
	cls := func(c string) func(span) bool { return func(s span) bool { return s.Class == c } }
	m := map[string]metricValue{
		"exp.matrix_setups_s":     t.selfMedian("exp.matrix_setups", nil),
		"synth.cached_generate_s": t.selfMedian("synth.cached_generate", nil),
		"route.mclb_s":            t.selfMedian("route.mclb", nil),
		"route.ndbt_s":            t.selfMedian("route.ndbt", nil),
		"vc.assign_s":             t.selfMedian("vc.assign", nil),
		"sim.fingerprint_s":       t.selfMedian("sim.fingerprint", nil),
		"sim.run_matrix_s":        t.selfMedian("sim.run_matrix", nil),
		"sim.cell_s":              t.selfMedian("sim.replay", nil),
		"sim.cell_p75_s":          t.selfQuantile("sim.replay", nil, 0.75),
		"sim.cell_idle_s":         t.selfMedian("sim.replay", cls("idle")),
		"sim.cell_saturated_s":    t.selfMedian("sim.replay", cls("saturated")),
		"sim.cell_fault_s":        t.selfMedian("sim.replay", cls("fault")),
	}
	addEventMetrics(t, m)
	var replay, matrix time.Duration
	for _, s := range t.spansNamed("sim.replay", nil) {
		replay += s.dur()
	}
	runs := t.spansNamed("sim.run_matrix", nil)
	for _, s := range runs {
		matrix += s.dur()
	}
	if matrix > 0 {
		m["sim.pool_efficiency"] = stat(replay.Seconds()/(matrix.Seconds()*float64(runtime.GOMAXPROCS(0))), len(runs))
	}
	return m, nil
}

// addEventMetrics derives the replay metrics. ns_per_event covers every
// replay; the event counts cover the traced pass's first block only,
// which every run completes, so they repeat exactly for a given seed.
func addEventMetrics(t *tracedRun, m map[string]metricValue) {
	var ns float64
	var all int64
	replays := t.spansNamed("sim.replay", nil)
	for _, s := range replays {
		ns += float64(s.dur().Nanoseconds())
		all += s.Count
	}
	if all > 0 {
		m["sim.ns_per_event"] = stat(ns/float64(all), len(replays))
	}
	first := map[int]bool{}
	for _, s := range t.traced.firstBlock() {
		first[s.opID] = true
	}
	var ev int64
	cells := 0
	for _, s := range t.spansNamed("sim.replay", func(s span) bool { return first[s.Op] }) {
		ev += s.Count
		cells++
	}
	if cells > 0 {
		m["sim.events_per_cell"] = stat(float64(ev)/float64(cells), cells)
		m["sim.events_per_op"] = stat(float64(ev)/float64(len(first)), len(first))
	}
}
