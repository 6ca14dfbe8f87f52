package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"netsmith"
	"netsmith/internal/sim"
)

// parsecSystems are the full systems the parsec workload builds: the
// mesh NoI with expert routing (the paper's Figure 8 baseline) and the
// NetSmith latency-optimized medium NoI with MCLB routing.
var parsecSystems = []string{"mesh", "ns-latop-medium"}

// parsecSeeds is the pool each block draws its simulation seed from.
var parsecSeeds = []int64{1, 2, 3, 4}

type parsecBody struct {
	System    string `json:"system"`
	Benchmark string `json:"benchmark"`
	Seed      int64  `json:"seed"`
}

var parsecWorkload = &workload{
	name:    "parsec",
	why:     "full-system PARSEC runs: sub-rate clock domains and CDC links on the legacy stepper, plus full-system route/VC set-up",
	clients: 1,
	ops: func(seed int64, client int) func() []op {
		seeds := cycler{rng: rand.New(rand.NewSource(seed)), n: len(parsecSeeds)}
		return func() []op {
			return parsecBlock(parsecSeeds[seeds.next()])
		}
	},
	pool: func() []op {
		var ops []op
		for _, s := range parsecSeeds {
			ops = append(ops, parsecBlock(s)...)
		}
		return ops
	},
	warmup: func() []op { return parsecBlock(parsecSeeds[0])[:1] },
	build:  buildParsec,
	layers: parsecLayers,
}

// parsecBlock is one Figure 8 pass at one seed: every benchmark on
// every system, in the figure's order.
func parsecBlock(seed int64) []op {
	var ops []op
	for _, b := range netsmith.PARSECWorkloads() {
		for _, sys := range parsecSystems {
			body := parsecBody{System: sys, Benchmark: b.Name, Seed: seed}
			ops = append(ops, op{Key: opKey("parsec", body), Class: sys, body: body})
		}
	}
	return ops
}

type parsecFixture struct {
	systems map[string]*netsmith.FullSystem
	benches map[string]netsmith.Workload

	mu  sync.Mutex
	cpi map[parsecBody]float64
}

func buildParsec(ctx context.Context, sc scope) (fixture, error) {
	f := &parsecFixture{
		systems: map[string]*netsmith.FullSystem{},
		benches: map[string]netsmith.Workload{},
		cpi:     map[parsecBody]float64{},
	}
	for _, b := range netsmith.PARSECWorkloads() {
		f.benches[b.Name] = b
	}
	bs := sc.child("fullsys.build")
	mesh, err := netsmith.BuildFullSystemExpert(netsmith.Mesh(netsmith.Grid4x5), 1)
	bs.end()
	if err != nil {
		return nil, err
	}
	f.systems["mesh"] = mesh
	gs := sc.child("synth.generate")
	res, err := netsmith.Generate(netsmith.Options{
		Grid: netsmith.Grid4x5, Class: netsmith.Medium, Objective: netsmith.LatOp,
		Seed: 42, Iterations: 20000, Restarts: 4,
	})
	gs.end()
	if err != nil {
		return nil, err
	}
	bs = sc.child("fullsys.build")
	ns, err := netsmith.BuildFullSystem(res.Topology, 1)
	bs.end()
	if err != nil {
		return nil, err
	}
	f.systems["ns-latop-medium"] = ns
	return f, nil
}

func (f *parsecFixture) close() {}

func (f *parsecFixture) do(_ context.Context, _ int, o op, sc scope) (outcome, error) {
	body := o.body.(parsecBody)
	sys, b := f.systems[body.System], f.benches[body.Benchmark]
	if sys == nil || b.Name == "" {
		return outcome{}, fmt.Errorf("unknown system or benchmark in %s", o.Key)
	}
	rs := sc.child("fullsys.run_workload")
	res, err := netsmith.RunWorkload(sys, b, body.Seed, false)
	rs.end()
	if err != nil {
		return outcome{}, err
	}
	row, err := json.Marshal(res)
	if err != nil {
		return outcome{}, err
	}
	if sc.tr != nil {
		if err := replayWorkload(sys, b, body.Seed, res, sc); err != nil {
			return outcome{}, err
		}
	}
	f.mu.Lock()
	f.cpi[body] = res.CPI
	f.mu.Unlock()
	return outcome{
		digest: digest(row),
		check: func() error {
			if !(res.AvgPacketNs > 0) || math.IsInf(res.AvgPacketNs, 0) || !(res.CPI > 0) {
				return fmt.Errorf("%s on %s: latency %g ns, CPI %g", b.Name, sys.NoI.Name, res.AvgPacketNs, res.CPI)
			}
			return nil
		},
	}, nil
}

// replayWorkload re-runs the op's simulation through sim.Run with
// activity counters, to check for a stall and count its events; it
// must reproduce the op's packet latency.
func replayWorkload(sys *netsmith.FullSystem, b netsmith.Workload, seed int64, want *netsmith.WorkloadResult, sc scope) error {
	cfg := sys.SimConfig(sys.NewWorkload(b), b.InjectionRate(), seed)
	cfg.CollectEnergy = true
	rs := sc.diag("sim.replay", "")
	res, err := sim.Run(cfg)
	if err != nil {
		rs.end()
		return err
	}
	rs.endCount(events(res))
	if res.Stalled {
		return fmt.Errorf("%s on %s stalled", b.Name, sys.NoI.Name)
	}
	if res.AvgLatencyNs != want.AvgPacketNs {
		return fmt.Errorf("replay of %s on %s does not reproduce the run", b.Name, sys.NoI.Name)
	}
	return nil
}

// verify checks the paper's Figure 8 claim on every seed that ran in
// full: the NS system's geomean speedup over mesh is at least 1.
func (f *parsecFixture) verify() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var note []string
	for _, seed := range parsecSeeds {
		logSum, n := 0.0, 0
		for name := range f.benches {
			mesh, ok1 := f.cpi[parsecBody{"mesh", name, seed}]
			ns, ok2 := f.cpi[parsecBody{"ns-latop-medium", name, seed}]
			if ok1 && ok2 {
				logSum += math.Log(mesh / ns)
				n++
			}
		}
		if n < len(f.benches) {
			continue
		}
		g := math.Exp(logSum / float64(n))
		if g < 1 {
			return "", fmt.Errorf("seed %d: NS geomean speedup over mesh %.4f < 1", seed, g)
		}
		note = append(note, fmt.Sprintf("seed %d %.4f", seed, g))
	}
	if len(note) == 0 {
		return "", nil
	}
	return "ns-latop-medium geomean speedup over mesh, 12 PARSEC benchmarks: " + strings.Join(note, ", "), nil
}

func parsecLayers(t *tracedRun) (map[string]metricValue, error) {
	m := map[string]metricValue{
		"fullsys.build_s":        t.selfMedian("fullsys.build", nil),
		"fullsys.run_workload_s": t.selfMedian("fullsys.run_workload", nil),
	}
	addEventMetrics(t, m)
	return m, nil
}
