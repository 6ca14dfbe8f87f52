package netsmith

import (
	"fmt"
	"testing"
)

func TestFacadeGenerateAndPrepare(t *testing.T) {
	var progress int
	res, err := Generate(Options{
		Grid: Grid4x5, Class: Medium, Objective: LatOp,
		Seed: 1, Iterations: 20000,
		Progress: func(ProgressPoint) { progress++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := res.Topology
	if !tp.IsConnected() || !tp.RespectsRadix(4) || !tp.RespectsLinkLengths() {
		t.Fatal("facade-generated topology violates constraints")
	}
	if progress == 0 || progress != len(res.Trace) {
		t.Errorf("progress callback fired %d times for a %d-point trace", progress, len(res.Trace))
	}
	net, err := Prepare(tp)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := SweepUniform(net, []float64{0.01, 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ZeroLoadLatencyNs <= 0 {
		t.Error("no latency measured via facade")
	}
}

// TestFacadeScale100 pins the beyond-64-router path through the public
// API: Grid10x10 synthesizes end to end.
func TestFacadeScale100(t *testing.T) {
	res, err := Generate(Options{
		Grid: Grid10x10, Class: Medium, Objective: LatOp,
		Seed: 3, Iterations: 5000, Restarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := res.Topology
	if tp.N() != 100 {
		t.Fatalf("expected 100 routers, got %d", tp.N())
	}
	if !tp.IsConnected() || !tp.RespectsRadix(4) || !tp.RespectsLinkLengths() {
		t.Fatal("100-router facade topology violates constraints")
	}
}

func TestFacadeBaselines(t *testing.T) {
	names := BaselineNames(Grid4x5)
	if len(names) == 0 {
		t.Fatal("no baselines")
	}
	for _, n := range names {
		tp, err := Baseline(n, Grid4x5)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if !tp.IsConnected() {
			t.Errorf("%s disconnected", n)
		}
	}
	if Mesh(Grid4x5).NumLinks() != 31 {
		t.Error("mesh helper broken")
	}
	if FoldedTorus(Grid4x5).NumLinks() != 40 {
		t.Error("folded torus helper broken")
	}
}

func TestFacadeRoutingAndVCs(t *testing.T) {
	kite, err := Baseline("Kite-Medium", Grid4x5)
	if err != nil {
		t.Fatal(err)
	}
	mclb, err := MCLB(kite, 1)
	if err != nil {
		t.Fatal(err)
	}
	ndbt, err := NDBT(kite, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mclb.MaxChannelLoad() > ndbt.MaxChannelLoad() {
		t.Errorf("MCLB %d worse than NDBT %d", mclb.MaxChannelLoad(), ndbt.MaxChannelLoad())
	}
	a, err := AssignVCs(mclb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumVCs < 1 {
		t.Error("no VC layers")
	}
}

func TestFacadePatternOp(t *testing.T) {
	res, err := Generate(Options{
		Grid: Grid4x5, Class: Large, Objective: PatternOp,
		Weights: ShuffleWeights(20), Seed: 2, Iterations: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Topology.IsConnected() {
		t.Fatal("pattern-optimized topology disconnected")
	}
}

// TestFacadeStore exercises the caching surface through the public
// API: GenerateCached round-trips a synthesis, and a store-backed
// RunMatrix resumes from cache with identical output.
func TestFacadeStore(t *testing.T) {
	st, err := OpenStore(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Grid: Grid4x5, Class: Medium, Objective: LatOp,
		Seed: 1, Iterations: 5000, Restarts: 2,
	}
	cold, hit, err := GenerateCached(st, opts)
	if err != nil || hit {
		t.Fatalf("cold generate: hit=%v err=%v", hit, err)
	}
	warm, hit, err := GenerateCached(st, opts)
	if err != nil || !hit {
		t.Fatalf("warm generate: hit=%v err=%v", hit, err)
	}
	if warm.Topology.CanonicalLinkList() != cold.Topology.CanonicalLinkList() || warm.Objective != cold.Objective {
		t.Error("cached synthesis differs from the computed one")
	}
	if _, _, err := GenerateCached(st, Options{Grid: Grid4x5, Restarts: -1}); err == nil {
		t.Error("GenerateCached accepted negative restarts")
	}

	g := NewGrid(3, 3)
	net, err := PrepareNDBT(Mesh(g))
	if err != nil {
		t.Fatal(err)
	}
	mc := MatrixConfig{
		Setups:   []*Network{net},
		Patterns: []PatternFactory{PatternFactoryFor("uniform", g, nil)},
		Rates:    []float64{0.02, 0.10},
		Base:     SimConfig{WarmupCycles: 200, MeasureCycles: 500, DrainCycles: 1000},
		Seed:     3,
		Store:    st,
	}
	first, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Computed != 2 || first.Stats.CacheHits != 0 {
		t.Fatalf("first run stats: %+v", first.Stats)
	}
	second, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Computed != 0 || second.Stats.CacheHits != 2 {
		t.Fatalf("second run stats: %+v", second.Stats)
	}
	if second.Curves[0].ZeroLoadLatencyNs != first.Curves[0].ZeroLoadLatencyNs {
		t.Error("cached curve differs from computed one")
	}
	if s, err := ParseShard("1/4"); err != nil || (s != Shard{Index: 1, Count: 4}) {
		t.Errorf("ParseShard: %+v, %v", s, err)
	}
}

// worstSingleLinkDelivery exhaustively fails every directed link of a
// topology (one schedule per link, all in one matrix fault axis) and
// returns the minimum delivered fraction across the failures.
func worstSingleLinkDelivery(t *testing.T, tp *Topology) float64 {
	t.Helper()
	net, err := Prepare(tp)
	if err != nil {
		t.Fatal(err)
	}
	var faults []FaultFactory
	for _, l := range tp.Links() {
		faults = append(faults, FaultFactoryFor("list", map[string]string{
			"events": fmt.Sprintf("link=%d>%d@400", l.From, l.To)}))
	}
	res, err := RunMatrix(MatrixConfig{
		Setups:   []*Network{net},
		Patterns: []PatternFactory{PatternFactoryFor("uniform", Grid4x5, nil)},
		Faults:   faults,
		Rates:    []float64{0.05},
		Base:     SimConfig{WarmupCycles: 300, MeasureCycles: 800, DrainCycles: 1600},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	worst := 1.0
	for _, c := range res.Curves {
		for _, p := range c.Points {
			if p.DeliveredFraction < worst {
				worst = p.DeliveredFraction
			}
		}
	}
	return worst
}

// TestFacadeRobustSynthesisSurvivesLinkFailures is the robustness
// acceptance pin: under the exhaustive single-link-failure sweep, a
// fragility-priced topology must deliver strictly more traffic in its
// worst case than the energy-only topology synthesized from the same
// options — and must have no critical links at all.
func TestFacadeRobustSynthesisSurvivesLinkFailures(t *testing.T) {
	base := Options{Grid: Grid4x5, Class: Medium, Objective: LatOp,
		EnergyWeight: 30, Seed: 4, Iterations: 8000, Restarts: 2}
	fragile, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	robustOpts := base
	robustOpts.RobustWeight = 50
	robust, err := Generate(robustOpts)
	if err != nil {
		t.Fatal(err)
	}
	if robust.CriticalLinks != 0 {
		t.Fatalf("robust synthesis left %d critical links (fragility %d)",
			robust.CriticalLinks, robust.Fragility)
	}

	fragileWorst := worstSingleLinkDelivery(t, fragile.Topology)
	robustWorst := worstSingleLinkDelivery(t, robust.Topology)
	if robustWorst <= fragileWorst {
		t.Errorf("fragility pricing bought nothing: worst delivered fraction %v (robust) vs %v (energy-only)",
			robustWorst, fragileWorst)
	}
	// With no critical links every failure reroutes; only in-flight
	// flits on the dying link are lost.
	if robustWorst < 0.95 {
		t.Errorf("robust topology worst-case delivered fraction %v, want >= 0.95", robustWorst)
	}
}

func TestFacadeTrafficConstructors(t *testing.T) {
	if UniformTraffic(20).Name() != "uniform" {
		t.Error("uniform name")
	}
	if ShuffleTraffic(20).Name() != "shuffle" {
		t.Error("shuffle name")
	}
	if MemoryTraffic(Grid4x5).Name() != "memory" {
		t.Error("memory name")
	}
	w := ShuffleWeights(20)
	if len(w) != 20 || w[1][2] != 1 {
		t.Error("shuffle weights: src 1 -> dst 2 expected")
	}
}
