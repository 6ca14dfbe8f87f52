package netsmith

// Benchmark harness: one benchmark per paper table/figure (regenerating
// the same rows/series, at fast fidelity) plus ablation benches for the
// design choices called out in DESIGN.md and micro-benchmarks of the
// core kernels. Run:
//
//	go test -bench=. -benchmem
//
// For paper-formatted output use cmd/netbench.

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"netsmith/internal/bitgraph"
	"netsmith/internal/exp"
	"netsmith/internal/expert"
	"netsmith/internal/fullsys"
	"netsmith/internal/layout"
	"netsmith/internal/route"
	"netsmith/internal/sim"
	"netsmith/internal/synth"
	"netsmith/internal/traffic"
	"netsmith/internal/vc"
)

var (
	suiteOnce sync.Once
	suite     *exp.Suite
)

func benchSuite() *exp.Suite {
	suiteOnce.Do(func() { suite = exp.NewSuite(true) })
	return suite
}

// BenchmarkTable2 regenerates Table II (topology metrics, 20 and 30
// routers).
func BenchmarkTable2(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintTable2(io.Discard, rows)
			for _, r := range rows {
				if r.Topology == "NS-LatOp-medium" && r.Routers == 20 {
					b.ReportMetric(r.AvgHops, "NS-medium-avghops")
				}
			}
		}
	}
}

// BenchmarkFig1 regenerates the latency-vs-saturation scatter.
func BenchmarkFig1(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		pts, err := s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig1(io.Discard, pts)
		}
	}
}

// BenchmarkFig5 regenerates the solver-progress traces.
func BenchmarkFig5(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		traces, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig5(io.Discard, traces)
		}
	}
}

// BenchmarkFig6 regenerates the synthetic-traffic curves (coherence and
// memory, 20 routers).
func BenchmarkFig6(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		curves, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig6(io.Discard, curves)
		}
	}
}

// BenchmarkFig7 regenerates the topology-vs-routing isolation study.
func BenchmarkFig7(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig7(io.Discard, rows)
		}
	}
}

// BenchmarkFig8 regenerates the PARSEC full-system study.
func BenchmarkFig8(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig8(io.Discard, rows)
			for _, r := range rows {
				if r.Benchmark == "geomean" && r.Topology == "NS-LatOp-large" {
					b.ReportMetric(r.Speedup, "NS-large-geomean-speedup")
				}
			}
		}
	}
}

// BenchmarkFig9 regenerates the power/area analysis.
func BenchmarkFig9(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig9(io.Discard, rows)
		}
	}
}

// BenchmarkFig10 regenerates the shuffle-pattern study.
func BenchmarkFig10(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		curves, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig10(io.Discard, curves)
		}
	}
}

// BenchmarkFig11 regenerates the 48-router scalability study.
func BenchmarkFig11(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		curves, err := s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.PrintFig11(io.Discard, curves)
		}
	}
}

// --- Ablations -----------------------------------------------------

// BenchmarkAblationSymmetry quantifies the cost of forcing symmetric
// links (paper: <3% latency loss, no bandwidth loss).
func BenchmarkAblationSymmetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := synth.Config{Grid: layout.Grid4x5, Class: layout.Medium,
			Objective: synth.LatOp, Seed: 42, Iterations: 20000, Restarts: 2}
		asym, err := synth.Generate(base)
		if err != nil {
			b.Fatal(err)
		}
		symCfg := base
		symCfg.Symmetric = true
		sym, err := synth.Generate(symCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(asym.Topology.AverageHops(), "asym-avghops")
			b.ReportMetric(sym.Topology.AverageHops(), "sym-avghops")
		}
	}
}

// BenchmarkAblationDiameter measures the effect of the optional C8
// diameter bound on solution quality at a fixed budget.
func BenchmarkAblationDiameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := synth.Config{Grid: layout.Grid4x5, Class: layout.Large,
			Objective: synth.LatOp, Seed: 42, Iterations: 12000, Restarts: 2}
		free, err := synth.Generate(base)
		if err != nil {
			b.Fatal(err)
		}
		bounded := base
		bounded.MaxDiameter = 4
		bnd, err := synth.Generate(bounded)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(free.Gap, "unbounded-gap")
			b.ReportMetric(bnd.Gap, "bounded-gap")
		}
	}
}

// BenchmarkAblationCutPool compares SCOp with the lazy cut pool against
// a dense random pool of the same search budget.
func BenchmarkAblationCutPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := synth.Config{Grid: layout.Grid4x5, Class: layout.Medium,
			Objective: synth.SCOp, Seed: 42, Iterations: 12000, Restarts: 2}
		res, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Objective*100, "scop-bandwidth-x100")
		}
	}
}

// BenchmarkAblationRadix checks the paper's observation that a higher
// radix converges faster (smaller gap at equal budget).
func BenchmarkAblationRadix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var gaps [2]float64
		for j, radix := range []int{4, 6} {
			cfg := synth.Config{Grid: layout.Grid4x5, Class: layout.Medium,
				Objective: synth.LatOp, Radix: radix, Seed: 42,
				Iterations: 10000, Restarts: 2}
			res, err := synth.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			gaps[j] = res.Gap
		}
		if i == 0 {
			b.ReportMetric(gaps[0], "radix4-gap")
			b.ReportMetric(gaps[1], "radix6-gap")
		}
	}
}

// --- Micro-benchmarks of the core kernels ---------------------------

// BenchmarkBitgraphAPSP measures the bitmask all-pairs BFS on a
// 20-router topology (the annealer's inner loop).
func BenchmarkBitgraphAPSP(b *testing.B) {
	t := expert.Mesh(layout.Grid4x5)
	g := bitgraph.New(20)
	for _, l := range t.Links() {
		g.Add(l.From, l.To)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HopStats()
	}
}

// BenchmarkSparsestCutExact measures exhaustive sparsest-cut evaluation
// at 20 routers (2^19 partitions).
func BenchmarkSparsestCutExact(b *testing.B) {
	t := expert.Mesh(layout.Grid4x5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := t.Clone()
		fresh.SparsestCut()
	}
}

// BenchmarkMCLB20 measures MCLB path selection on a 20-router Kite.
func BenchmarkMCLB20(b *testing.B) {
	t, err := expert.Get(expert.NameKiteMedium, layout.Grid4x5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.MCLB(t, route.MCLBOptions{Seed: int64(i), Restarts: 2, Sweeps: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVCAssign measures deadlock-free VC layering, vc.Assign plus
// its Verify certificate, on the 84-router full-system network around
// the NS-LatOp-medium NoI at two tries, as fullsys.Build calls it. The
// MCLB routing is built once, outside the timer.
func BenchmarkVCAssign(b *testing.B) {
	res, err := synth.Generate(synth.MatrixNSConfig(layout.Grid4x5, layout.Medium, 0, 0, 42, 20000, 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := fullsys.Build(res.Topology, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := sys.Routing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := vc.Assign(r, vc.Options{Seed: 1, Tries: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Verify(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSystemBuild measures the parsec benchmark's set-up: the
// two Figure 8 full systems, the mesh NoI with expert routing and the
// NS-LatOp-medium NoI (seed 42, 20000 iterations, 4 restarts) with
// MCLB, each routed and given verified VC layers at seed 1. The NoI
// synthesis runs once, outside the timer.
func BenchmarkFullSystemBuild(b *testing.B) {
	res, err := synth.Generate(synth.MatrixNSConfig(layout.Grid4x5, layout.Medium, 0, 0, 42, 20000, 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	mesh := Mesh(Grid4x5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFullSystemExpert(mesh, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := BuildFullSystem(res.Topology, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesisIteration measures annealing throughput
// (iterations/second) via a fixed-iteration LatOp run on the paper's
// 4x5 medium configuration. PR 2's incremental evaluator took this
// from ~5.7 ms to ~1.4 ms per 5000-iteration run on the CI Xeon
// (interleaved A/B against the PR 1 engine).
func BenchmarkSynthesisIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := synth.Generate(synth.Config{Grid: layout.Grid4x5, Class: layout.Medium,
			Objective: synth.LatOp, Seed: int64(i), Iterations: 5000, Restarts: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCOpSynthesis measures sparsest-cut synthesis end to end on
// the paper's 4x5 medium configuration: one 5000-step restart at seed
// 1, after which all 12 separation rounds run (an exhaustive sparsest
// cut of the incumbent, a pool cut added and a 5000-step re-anneal
// each), so the peek-first removal rejections and the exact cut
// enumeration both sit on the measured path.
func BenchmarkSCOpSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := synth.Generate(synth.Config{Grid: layout.Grid4x5, Class: layout.Medium,
			Objective: synth.SCOp, Seed: 1, Iterations: 5000, Restarts: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopulationGeneration measures population-mode synthesis on
// the paper's 4x5 medium configuration: a 4-member pool evolved for 2
// generations of 1200-step bursts (tournament crossover, journaled
// repair, elitist merge). The benchdiff gate holds its ns/op and
// allocs/op so operator overhead (crossover scratch graphs, repair
// probes) stays visible.
func BenchmarkPopulationGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := synth.Generate(synth.Config{Grid: layout.Grid4x5, Class: layout.Medium,
			Objective: synth.LatOp, Seed: int64(i), Iterations: 1200, Restarts: 1,
			Population: 4, Generations: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesisIteration100 is the same throughput measurement on
// the beyond-paper 100-router grid, exercising the multi-word bitset
// path (the PR 1 engine capped out at 64 routers).
func BenchmarkSynthesisIteration100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := synth.Generate(synth.Config{Grid: layout.Grid10x10, Class: layout.Medium,
			Objective: synth.LatOp, Seed: int64(i), Iterations: 2000, Restarts: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalEval measures the evaluator's raw delta-query
// throughput: speculative remove+rollback and remove+re-add cycles on a
// dense 20-router graph, the annealer's innermost workload.
func BenchmarkIncrementalEval(b *testing.B) {
	g := bitgraph.New(20)
	for i := 0; i < 20; i++ {
		g.Add(i, (i+1)%20)
		g.Add((i+1)%20, i)
	}
	for a := 0; a < 20; a++ {
		for d := 2; d <= 3; d++ {
			if g.OutDeg[a] < 4 && g.InDeg[(a+d)%20] < 4 {
				g.Add(a, (a+d)%20)
			}
		}
	}
	e := bitgraph.NewEval(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := g.LinkAt(i % g.NumLinks())
		e.Begin()
		e.Remove(l.A, l.B)
		if e.Pending() > 0 && i%2 == 0 {
			e.Rollback()
			continue
		}
		_ = e.Total()
		e.Commit()
		e.Begin()
		e.Add(l.A, l.B)
		e.Commit()
	}
}

// BenchmarkEngineSteadyState measures raw flit-engine throughput: one
// fixed-window simulation of a 4x5 mesh under uniform traffic at
// moderate load. Run with -benchmem: steady-state cycles must not
// allocate (packets are pooled; buffers and link queues are flat rings),
// so allocs/op stays bounded by engine setup.
func BenchmarkEngineSteadyState(b *testing.B) {
	s, err := sim.Prepare(expert.Mesh(layout.Grid4x5), sim.UseNDBT, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Topo: s.Topo, Routing: s.Routing, VC: s.VC,
			Pattern: traffic.Uniform{N: 20}, InjectionRate: 0.09,
			WarmupCycles: 2000, MeasureCycles: 8000, DrainCycles: 8000,
			Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stalled {
			b.Fatal("stalled")
		}
	}
}

// BenchmarkEngineSteadyStateEnergy is BenchmarkEngineSteadyState with
// activity counters enabled: the same fixed-window simulation plus
// per-router/per-link energy accounting. The benchdiff gate holds it to
// the usual allocs/op ceiling (the counters are flat arrays sized at
// setup) and its ns/op must track the non-energy benchmark within a few
// percent — the counting is three predictable branch+increment pairs on
// already-hot cache lines.
func BenchmarkEngineSteadyStateEnergy(b *testing.B) {
	s, err := sim.Prepare(expert.Mesh(layout.Grid4x5), sim.UseNDBT, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Topo: s.Topo, Routing: s.Routing, VC: s.VC,
			Pattern: traffic.Uniform{N: 20}, InjectionRate: 0.09,
			WarmupCycles: 2000, MeasureCycles: 8000, DrainCycles: 8000,
			CollectEnergy: true,
			Seed:          int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stalled || res.Energy == nil {
			b.Fatal("bad energy run")
		}
	}
}

// BenchmarkEngineSubRate is BenchmarkEngineSteadyState with two clock
// domains: even-numbered routers serve at 3.0/3.8 of the base clock
// (the full-system interposer-to-chiplet ratio), under lighter load.
// It measures the slot-table lookups on the event scan; the tables are
// sized to the cycle budget at setup, so allocs/op stays setup-only.
func BenchmarkEngineSubRate(b *testing.B) {
	s, err := sim.Prepare(expert.Mesh(layout.Grid4x5), sim.UseNDBT, 1)
	if err != nil {
		b.Fatal(err)
	}
	rates := make([]float64, s.Topo.N())
	for r := range rates {
		rates[r] = 1
		if r%2 == 0 {
			rates[r] = 3.0 / 3.8
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Topo: s.Topo, Routing: s.Routing, VC: s.VC,
			Pattern: traffic.Uniform{N: 20}, InjectionRate: 0.05,
			WarmupCycles: 2000, MeasureCycles: 8000, DrainCycles: 8000,
			NodeRate: rates,
			Seed:     int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stalled {
			b.Fatal("stalled")
		}
	}
}

// BenchmarkMatrixBatched measures one smoke-fidelity scenario matrix on
// a 4x4 mesh: the per-worker engine-reuse path that RunMatrix uses by
// default, covering setup amortization across {pattern x rate} cells.
func BenchmarkMatrixBatched(b *testing.B) {
	s, err := sim.Prepare(expert.Mesh(layout.NewGrid(4, 4)), sim.UseNDBT, 1)
	if err != nil {
		b.Fatal(err)
	}
	var base sim.Config
	if err := sim.ApplyFidelity(&base, sim.FidelitySmoke); err != nil {
		b.Fatal(err)
	}
	mc := sim.MatrixConfig{
		Setups: []*sim.Setup{s},
		Patterns: []sim.PatternFactory{
			{Name: "uniform", New: func() (traffic.Pattern, error) { return traffic.Uniform{N: 16}, nil }},
			{Name: "tornado", New: func() (traffic.Pattern, error) { return traffic.Tornado(4, 4), nil }},
		},
		Rates: []float64{0.02, 0.10},
		Base:  base,
		Seed:  42,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunMatrix(mc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoFilter measures the exact domination filter behind
// ParetoSweep on a 1024-point cloud (the filter is O(n²) in swept
// points, so this is the frontier-assembly hot path at fleet scale).
func BenchmarkParetoFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ms := make([]exp.ParetoMetrics, 1024)
	for i := range ms {
		ms[i] = exp.ParetoMetrics{
			LatencyNs:       20 + 40*rng.Float64(),
			SaturationPerNs: 0.05 + 0.25*rng.Float64(),
			EnergyPerFlitPJ: 1 + 9*rng.Float64(),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if keep := exp.FilterDominated(ms); len(keep) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// BenchmarkTopologyMetrics measures the static Table II metric kernel.
func BenchmarkTopologyMetrics(b *testing.B) {
	t, err := expert.Get(expert.NameKiteLarge, layout.Grid4x5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := t.Clone()
		_ = fresh.AverageHops()
		_ = fresh.Diameter()
		_ = fresh.BisectionBandwidth()
	}
}
