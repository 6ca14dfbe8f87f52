package sim

import (
	"reflect"
	"runtime"
	"testing"

	"netsmith/internal/fault"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
)

// ffTrace builds a short trace that dries up well inside the warmup
// window: at injection rate 1.0 every source pops one record per cycle,
// so after ~60 cycles the replay is permanently dry (Replay.Dry) and
// the engine's generation-phase fast-forward carries the run to the
// measure-window end.
func ffTrace(t testing.TB) []traffic.TraceRecord {
	t.Helper()
	var recs []traffic.TraceRecord
	for c := int64(0); c < 60; c++ {
		for src := 0; src < 20; src++ {
			flits := 1
			if (src+int(c))%2 == 0 {
				flits = 9
			}
			recs = append(recs, traffic.TraceRecord{Cycle: c, Src: src, Dst: (src + 7) % 20, Flits: flits})
		}
	}
	return recs
}

// fullSystemRates clocks routers at the full-system interposer/chiplet
// ratios (3.6, 3.0 and 2.7 GHz over a 3.8 GHz base) in rotation, with
// every fourth router at full rate. None of the ratios is a binary
// fraction, so a slot table that drifted from the float accumulator
// would show.
func fullSystemRates(n int) []float64 {
	ratios := []float64{1, 3.6 / 3.8, 3.0 / 3.8, 2.7 / 3.8}
	rates := make([]float64, n)
	for r := range rates {
		rates[r] = ratios[r%len(ratios)]
	}
	return rates
}

// cdcLatency adds a 2-cycle clock-domain-crossing penalty to every link
// joining routers of different rates.
func cdcLatency(tp *topo.Topology, rates []float64) map[[2]int]int {
	extra := map[[2]int]int{}
	for _, l := range tp.Links() {
		if rates[l.From] != rates[l.To] {
			extra[[2]int{l.From, l.To}] = 2
		}
	}
	return extra
}

// ffScenarios returns fresh-Config builders covering the paths the
// event-driven stepper must keep bit-identical to runReference: steady
// uniform load, energy collection, fault epochs (including a boundary
// inside a fast-forward window), stateful patterns, trace replay that
// dries up, and sub-rate clock domains. Builders return fresh pattern
// instances so paired runs never share state.
func ffScenarios(t *testing.T) map[string]func() Config {
	t.Helper()
	s := meshSetup(t)
	base := func() Config {
		return Config{
			Topo: s.Topo, Routing: s.Routing, VC: s.VC,
			WarmupCycles: 400, MeasureCycles: 1500, DrainCycles: 3000,
			Seed: 11,
		}
	}
	replay := func() traffic.Pattern {
		rep, err := traffic.NewReplay("ff", 20, ffTrace(t), false)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	return map[string]func() Config{
		"uniform-low-energy": func() Config {
			cfg := base()
			cfg.Pattern = traffic.Uniform{N: 20}
			cfg.InjectionRate = 0.02
			cfg.CollectEnergy = true
			return cfg
		},
		"uniform-mid": func() Config {
			cfg := base()
			cfg.Pattern = traffic.Uniform{N: 20}
			cfg.InjectionRate = 0.09
			return cfg
		},
		"uniform-faults-energy": func() Config {
			cfg := base()
			cfg.Pattern = traffic.Uniform{N: 20}
			cfg.InjectionRate = 0.03
			cfg.CollectEnergy = true
			cfg.FaultSchedule = buildSched(t, cfg, "klinks:k=2:seed=9:at=600")
			return cfg
		},
		"bursty": func() Config {
			cfg := base()
			b, err := traffic.NewBursty(traffic.Uniform{N: 20}, 20, 0.05, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pattern = b
			cfg.InjectionRate = 0.05
			return cfg
		},
		"memory": func() Config {
			cfg := base()
			cores := make([]int, 16)
			for i := range cores {
				cores[i] = i
			}
			cfg.Pattern = traffic.NewMemory(cores, []int{16, 17, 18, 19})
			cfg.InjectionRate = 0.03
			return cfg
		},
		"trace-dry-energy": func() Config {
			cfg := base()
			cfg.Pattern = replay()
			cfg.InjectionRate = 1.0
			cfg.CollectEnergy = true
			return cfg
		},
		"trace-dry-fault-in-window": func() Config {
			// The boundary at cycle 900 lands long after the trace dried
			// (~cycle 60): without clamping, fast-forward would jump the
			// epoch flush entirely.
			cfg := base()
			cfg.Pattern = replay()
			cfg.InjectionRate = 1.0
			cfg.CollectEnergy = true
			cfg.FaultSchedule = buildSched(t, cfg, "klinks:k=2:seed=9:at=900")
			return cfg
		},
		"sub-rate-clocks": func() Config {
			cfg := base()
			cfg.Pattern = traffic.Uniform{N: 20}
			cfg.InjectionRate = 0.03
			rates := make([]float64, 20)
			for i := range rates {
				rates[i] = 1
			}
			rates[3], rates[11] = 0.5, 0.25
			cfg.NodeRate = rates
			return cfg
		},
		"full-system-ratios": func() Config {
			// The full-system clock domains: three sub-rate ratios on
			// different routers, CDC latency on every domain crossing,
			// energy counters, and a fault epoch.
			cfg := base()
			cfg.Pattern = traffic.Uniform{N: 20}
			cfg.InjectionRate = 0.05
			cfg.CollectEnergy = true
			cfg.NodeRate = fullSystemRates(20)
			cfg.ExtraLinkLatency = cdcLatency(s.Topo, cfg.NodeRate)
			cfg.FaultSchedule = buildSched(t, cfg, "klinks:k=2:seed=9:at=600")
			return cfg
		},
	}
}

// TestFastForwardEquivalence pins the stepper's contract: the
// event-driven, fast-forwarding engine and the plain every-cycle,
// every-router reference loop produce DeepEqual Results — latency,
// energy counters, fault accounting — on every scenario class.
func TestFastForwardEquivalence(t *testing.T) {
	for name, mk := range ffScenarios(t) {
		t.Run(name, func(t *testing.T) {
			got, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			want, err := runReference(mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("engine diverged from the reference stepper:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestFastForwardEngages verifies (white-box) that the dried-up trace
// actually triggers cycle skipping, and that a fault boundary inside
// the skipped window still fires its epoch flush at the right cycle.
func TestFastForwardEngages(t *testing.T) {
	mk := ffScenarios(t)["trace-dry-fault-in-window"]
	cfg, err := defaulted(mk())
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if e.ffSkipped == 0 {
		t.Fatal("dried-up trace run never fast-forwarded")
	}
	if res.RerouteEvents != 1 {
		t.Fatalf("fault boundary inside the skipped window applied %d reroutes, want 1", res.RerouteEvents)
	}
	if e.nextBoundary != len(e.boundaries) {
		t.Fatalf("processed %d of %d fault boundaries", e.nextBoundary, len(e.boundaries))
	}
	// And the pure-drain case (no faults) should skip much more.
	cfg2, err := defaulted(ffScenarios(t)["trace-dry-energy"]())
	if err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(cfg2)
	if _, err := e2.run(); err != nil {
		t.Fatal(err)
	}
	if e2.ffSkipped < 100 {
		t.Fatalf("quiescent run skipped only %d cycles", e2.ffSkipped)
	}
	// With nothing measured in flight the run must end exactly at the
	// measure-window boundary, like the cycle-by-cycle path.
	if want := int64(cfg2.WarmupCycles + cfg2.MeasureCycles); e2.cycle != want {
		t.Fatalf("quiescent run ended at cycle %d, want %d", e2.cycle, want)
	}
	// Sub-rate clock domains skip quiescent windows too, and still
	// match the reference loop. Measuring from cycle 1 puts the trace's
	// packets into the latency average, and the long window outlasts
	// the slower routers' drain of the burst.
	dry := ffScenarios(t)["trace-dry-energy"]
	mkSub := func() Config {
		cfg := dry()
		cfg.WarmupCycles, cfg.MeasureCycles = 1, 3000
		cfg.NodeRate = fullSystemRates(20)
		cfg.ExtraLinkLatency = cdcLatency(cfg.Topo, cfg.NodeRate)
		return cfg
	}
	cfg3, err := defaulted(mkSub())
	if err != nil {
		t.Fatal(err)
	}
	e3 := newEngine(cfg3)
	got, err := e3.run()
	if err != nil {
		t.Fatal(err)
	}
	if e3.ffSkipped < 100 {
		t.Fatalf("quiescent sub-rate run skipped only %d cycles", e3.ffSkipped)
	}
	want, err := runReference(mkSub())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast-forwarded sub-rate run diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestEngineResetMatchesFresh pins the batching invariant: an engine
// reset between runs (different pattern, rate, seed, energy, faults) is
// indistinguishable from a freshly built one.
func TestEngineResetMatchesFresh(t *testing.T) {
	s := meshSetup(t)
	cfgA := Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern:       traffic.Uniform{N: 20},
		InjectionRate: 0.08,
		WarmupCycles:  400, MeasureCycles: 1500, DrainCycles: 3000,
		Seed:          3,
		CollectEnergy: true,
	}
	cfgB := Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern:       traffic.Tornado(4, 5),
		InjectionRate: 0.05,
		WarmupCycles:  400, MeasureCycles: 1500, DrainCycles: 3000,
		Seed: 77,
	}
	cfgB.FaultSchedule = buildSched(t, cfgB, "klinks:k=2:seed=9:at=600")

	var slot *engine
	gotA, err := runReused(&slot, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	first := slot
	gotB, err := runReused(&slot, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if slot != first {
		t.Fatal("compatible config rebuilt the engine instead of resetting it")
	}
	// A third run repeating cfgA exercises reset after fault epochs.
	gotA2, err := runReused(&slot, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("reused engine diverged on cfgA:\n%+v\nvs\n%+v", gotA, wantA)
	}
	if !reflect.DeepEqual(gotA2, wantA) {
		t.Fatalf("reused engine diverged on repeated cfgA:\n%+v\nvs\n%+v", gotA2, wantA)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("reused engine diverged on cfgB:\n%+v\nvs\n%+v", gotB, wantB)
	}

	// A reused sub-rate engine must grow its slot tables when a later
	// run has a longer cycle budget, and may keep them for a shorter one.
	mk := ffScenarios(t)["full-system-ratios"]
	var sub *engine
	for i, budget := range [][2]int{{500, 500}, {1500, 3000}, {500, 500}} {
		mkBudget := func() Config {
			cfg := mk()
			cfg.MeasureCycles, cfg.DrainCycles = budget[0], budget[1]
			return cfg
		}
		got, err := runReused(&sub, mkBudget())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sub
		} else if sub != first {
			t.Fatal("compatible sub-rate config rebuilt the engine instead of resetting it")
		}
		want, err := runReference(mkBudget())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reused sub-rate engine diverged at budget %v:\n%+v\nvs\n%+v", budget, got, want)
		}
	}
}

// TestMatrixBatchedMatchesFresh pins the batched scheduler: every cell
// of a batched matrix equals a fresh-engine Run of the cell's Config
// at seed Seed + i*7919, and a single-threaded run emits a DeepEqual
// matrix.
func TestMatrixBatchedMatchesFresh(t *testing.T) {
	s := meshSetup(t)
	mc := MatrixConfig{
		Setups: []*Setup{s},
		Patterns: []PatternFactory{
			{Name: "uniform", New: func() (traffic.Pattern, error) { return traffic.Uniform{N: 20}, nil }},
			{Name: "bursty", New: func() (traffic.Pattern, error) {
				return traffic.NewBursty(traffic.Uniform{N: 20}, 20, 0.05, 0.02)
			}},
			{Name: "trace", New: func() (traffic.Pattern, error) {
				return traffic.NewReplay("ff", 20, ffTrace(t), false)
			}},
		},
		Rates: []float64{0.02, 0.10},
		Faults: []FaultFactory{
			{Name: "none", New: func(*topo.Topology) (*fault.Schedule, error) { return &fault.Schedule{}, nil }},
			{Name: "cut01", New: func(*topo.Topology) (*fault.Schedule, error) {
				return &fault.Schedule{Events: []fault.Event{{Kind: fault.Link, From: 0, To: 1, Start: 100}}}, nil
			}},
		},
		Base: Config{
			WarmupCycles: 300, MeasureCycles: 800, DrainCycles: 1600,
			CollectEnergy: true,
		},
		Seed: 42,
	}
	batched, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	// With one setup, cells are numbered pattern-major, then fault, then
	// rate: the curve order.
	i := 0
	for ci, c := range batched.Curves {
		want := make([]SweepPoint, len(mc.Rates))
		for ri, rate := range mc.Rates {
			pat, err := mc.Patterns[ci/len(mc.Faults)].New()
			if err != nil {
				t.Fatal(err)
			}
			sched, err := mc.Faults[ci%len(mc.Faults)].New(s.Topo)
			if err != nil {
				t.Fatal(err)
			}
			cfg := mc.Base
			cfg.Topo, cfg.Routing, cfg.VC = s.Topo, s.Routing, s.VC
			cfg.Pattern, cfg.InjectionRate, cfg.FaultSchedule = pat, rate, sched
			cfg.Seed = mc.Seed + int64(i)*7919
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[ri] = cellPoint(rate, res)
			i++
		}
		deriveSaturation(want)
		if !reflect.DeepEqual(c.Points, want) {
			t.Fatalf("curve %s/%s diverged from fresh-engine runs:\n%+v\nvs\n%+v", c.Pattern, c.Fault, c.Points, want)
		}
	}
	old := runtime.GOMAXPROCS(1)
	serial, err := RunMatrix(mc)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batched, serial) {
		t.Fatalf("batched matrix depends on GOMAXPROCS:\n%+v\nvs\n%+v", batched, serial)
	}
}
