package synth

import (
	"math"
	"testing"
	"testing/quick"

	"netsmith/internal/bitgraph"
	"netsmith/internal/layout"
	"netsmith/internal/store"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
)

func quickCfg(g *layout.Grid, c layout.Class, obj Objective) Config {
	return Config{
		Grid: g, Class: c, Objective: obj,
		Radix: 4, Seed: 1, Iterations: 12000, Restarts: 2,
	}
}

func TestSeedTopologyConnectivity(t *testing.T) {
	for _, g := range []*layout.Grid{layout.Grid4x5, layout.Grid6x5, layout.Grid8x6, layout.NewGrid(1, 5), layout.NewGrid(5, 1), layout.NewGrid(3, 3)} {
		for _, c := range layout.Classes() {
			cfg, err := (&Config{Grid: g, Class: c}).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			seed := seedTopology(cfg)
			if !seed.IsConnected() {
				t.Errorf("seed topology for %v/%v is not strongly connected", g, c)
			}
			if !seed.RespectsLinkLengths() {
				t.Errorf("seed topology for %v/%v violates link lengths", g, c)
			}
		}
	}
}

func TestSeedTopologySymmetric(t *testing.T) {
	cfg, _ := (&Config{Grid: layout.Grid4x5, Class: layout.Small, Symmetric: true}).withDefaults()
	seed := seedTopology(cfg)
	if !seed.IsSymmetric() {
		t.Fatal("symmetric seed must be symmetric")
	}
}

func TestGraphStateIncremental(t *testing.T) {
	s := bitgraph.New(5)
	s.Add(0, 1)
	s.Add(1, 2)
	s.Add(0, 1) // idempotent
	if s.NumLinks() != 2 || s.OutDeg[0] != 1 || s.InDeg[1] != 1 {
		t.Fatalf("state after adds: links=%d outDeg0=%d inDeg1=%d", s.NumLinks(), s.OutDeg[0], s.InDeg[1])
	}
	s.Remove(0, 1)
	s.Remove(0, 1) // idempotent
	if s.NumLinks() != 1 || s.Has(0, 1) || !s.Has(1, 2) {
		t.Fatal("remove broke state")
	}
	c := s.Clone()
	c.Add(2, 3)
	if s.Has(2, 3) {
		t.Fatal("clone leaked")
	}
}

func TestHopStatsMatchesTopo(t *testing.T) {
	// Bitmask BFS must agree with the reference implementation in topo.
	g := layout.Grid4x5
	tp := topo.New("ref", g, layout.Large)
	// Irregular connected topology.
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 9}, {9, 8}, {8, 7}, {7, 6}, {6, 5},
		{5, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 19}, {19, 18}, {18, 17},
		{17, 16}, {16, 15}, {15, 10}, {5, 0}, {2, 7}, {12, 17}, {9, 14}}
	for _, p := range pairs {
		tp.AddLink(p[0], p[1])
		tp.AddLink(p[1], p[0])
	}
	s := stateFromTopology(tp)
	total, unreachable, diam := s.HopStats()
	wantTotal, ok := tp.TotalHops()
	if !ok {
		t.Fatal("reference disconnected")
	}
	if unreachable != 0 || int(total) != wantTotal || diam != tp.Diameter() {
		t.Errorf("hopStats = (%d,%d,%d), want (%d,0,%d)", total, unreachable, diam, wantTotal, tp.Diameter())
	}
}

func TestWeightedHopsMatchesTopo(t *testing.T) {
	g := layout.NewGrid(2, 3)
	tp := topo.New("ref", g, layout.Large)
	for i := 0; i < 6; i++ {
		tp.AddLink(i, (i+1)%6)
	}
	w := make([][]float64, 6)
	for i := range w {
		w[i] = make([]float64, 6)
		for j := range w[i] {
			if i != j {
				w[i][j] = float64(i + 2*j + 1)
			}
		}
	}
	s := stateFromTopology(tp)
	got, unreach := s.WeightedHops(w)
	if unreach != 0 {
		t.Fatal("ring is connected")
	}
	dist := tp.ShortestPaths()
	want := 0.0
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i != j {
				want += w[i][j] * float64(dist[i][j])
			}
		}
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("weightedHops = %v, want %v", got, want)
	}
}

func TestGenerateLatOpSmall4x5(t *testing.T) {
	res, err := Generate(quickCfg(layout.Grid4x5, layout.Small, LatOp))
	if err != nil {
		t.Fatal(err)
	}
	tp := res.Topology
	if !tp.IsConnected() {
		t.Fatal("generated topology disconnected")
	}
	if !tp.RespectsRadix(4) {
		t.Fatal("generated topology violates radix")
	}
	if !tp.RespectsLinkLengths() {
		t.Fatal("generated topology violates link lengths")
	}
	// Must beat the 4x5 mesh (avg 3.0) comfortably; the paper's small
	// LatOp reaches 2.34, and even a fast run should be below 2.6.
	if avg := tp.AverageHops(); avg > 2.6 {
		t.Errorf("LatOp small avg hops = %v, want < 2.6", avg)
	}
	if res.Bound <= 0 || res.Gap < 0 {
		t.Errorf("bound/gap not populated: bound=%v gap=%v", res.Bound, res.Gap)
	}
	if float64(mustTotalHops(t, tp)) < res.Bound {
		t.Errorf("objective %v below lower bound %v", mustTotalHops(t, tp), res.Bound)
	}
}

func mustTotalHops(t *testing.T, tp *topo.Topology) int {
	t.Helper()
	total, ok := tp.TotalHops()
	if !ok {
		t.Fatal("disconnected")
	}
	return total
}

func TestGenerateSCOp(t *testing.T) {
	cfg := quickCfg(layout.Grid4x5, layout.Medium, SCOp)
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := res.Topology
	if !tp.IsConnected() || !tp.RespectsRadix(4) || !tp.RespectsLinkLengths() {
		t.Fatal("SCOp topology violates constraints")
	}
	// The mesh's sparsest cut on 4x5 is about 4/(10*10); SCOp should find
	// considerably more (paper: bisection 11 vs mesh ~5).
	meshLike := 5.0 / 100.0
	if res.Objective <= meshLike {
		t.Errorf("SCOp sparsest cut %v not better than mesh-like %v", res.Objective, meshLike)
	}
	// Exact value reported must match a fresh evaluation.
	if got := tp.SparsestCut().Bandwidth; math.Abs(got-res.Objective) > 1e-12 {
		t.Errorf("reported objective %v != recomputed %v", res.Objective, got)
	}
	if res.Objective > res.Bound+1e-12 {
		t.Errorf("SCOp objective %v exceeds upper bound %v", res.Objective, res.Bound)
	}
}

func TestGenerateSymmetricConstraint(t *testing.T) {
	cfg := quickCfg(layout.Grid4x5, layout.Medium, LatOp)
	cfg.Symmetric = true
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Topology.IsSymmetric() {
		t.Fatal("Symmetric=true must yield a symmetric topology")
	}
	if !res.Topology.RespectsRadix(4) {
		t.Fatal("radix violated")
	}
}

func TestGenerateDiameterConstraint(t *testing.T) {
	cfg := quickCfg(layout.Grid4x5, layout.Large, LatOp)
	cfg.MaxDiameter = 4
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Topology.Diameter(); d > 4 {
		t.Errorf("diameter %d exceeds bound 4", d)
	}
}

func TestGenerateMinCutConstraint(t *testing.T) {
	cfg := quickCfg(layout.Grid4x5, layout.Medium, LatOp)
	cfg.MinCutBW = 8.0 / 100.0
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Topology.SparsestCut().Bandwidth; got < cfg.MinCutBW-1e-9 {
		t.Errorf("sparsest cut %v below C7 minimum %v", got, cfg.MinCutBW)
	}
}

func TestGenerateWeightedNeedsMatrix(t *testing.T) {
	cfg := quickCfg(layout.Grid4x5, layout.Small, Weighted)
	if _, err := Generate(cfg); err == nil {
		t.Fatal("Weighted without matrix must error")
	}
	cfg.Weights = [][]float64{{0}}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("wrong-size matrix must error")
	}
}

func TestGenerateWeightedShuffle(t *testing.T) {
	// Weight only the shuffle permutation pairs; the optimizer should
	// bring those pairs close to distance ~1 on a large-class 4x5.
	g := layout.Grid4x5
	n := g.N()
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for src := 0; src < n; src++ {
		var dst int
		if src < n/2 {
			dst = 2 * src
		} else {
			dst = (2*src + 1) % n
		}
		if dst != src {
			w[src][dst] = 1
		}
	}
	cfg := quickCfg(g, layout.Large, Weighted)
	cfg.Weights = w
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Topology.WeightedAverageHops(w)
	uni := quickCfg(g, layout.Large, LatOp)
	uniRes, err := Generate(uni)
	if err != nil {
		t.Fatal(err)
	}
	uniHops := uniRes.Topology.WeightedAverageHops(w)
	if got > uniHops+1e-9 {
		t.Errorf("pattern-optimized weighted hops %v worse than uniform-optimized %v", got, uniHops)
	}
}

// latOpLowerBound gaps every LatOp search and prunes population
// offspring, so it must never exceed the total hops a search achieves:
// 4x5 large and medium at radix 4 and 3x4 large at radix 3.
func TestLowerBoundSanity(t *testing.T) {
	cfg, _ := (&Config{Grid: layout.Grid4x5, Class: layout.Large, Radix: 4, Objective: LatOp}).withDefaults()
	// 20 routers, radix 4: per source the Moore bound gives
	// 4*1 + 15*2 = 34, so total >= 680.
	if lb := latOpLowerBound(cfg); lb < 680-1e-9 {
		t.Errorf("lower bound %v below Moore floor 680", lb)
	}
	t.Run("achieved", func(t *testing.T) {
		for _, raw := range []Config{
			quickCfg(layout.Grid4x5, layout.Large, LatOp),
			{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, Radix: 4, Seed: 2, Iterations: 2500, Restarts: 2},
			{Grid: layout.NewGrid(3, 4), Class: layout.Large, Objective: LatOp, Radix: 3, Seed: 2, Iterations: 2500, Restarts: 2},
		} {
			cfg, err := (&raw).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lb := latOpLowerBound(cfg)
			if total := mustTotalHops(t, res.Topology); lb > float64(total)+1e-9 {
				t.Errorf("%v %v radix %d: lower bound %v exceeds achieved %d", cfg.Grid, cfg.Class, cfg.Radix, lb, total)
			}
		}
	})
}

func TestMooreDistances(t *testing.T) {
	m := mooreDistances(20, 4)
	// First 4 nodes at distance >= 1, next 16 at >= 2.
	for k := 0; k < 4; k++ {
		if m[k] != 1 {
			t.Errorf("moore[%d] = %d, want 1", k, m[k])
		}
	}
	for k := 4; k < 19; k++ {
		if m[k] != 2 {
			t.Errorf("moore[%d] = %d, want 2", k, m[k])
		}
	}
	m1 := mooreDistances(5, 1)
	want := []int{1, 2, 3, 4}
	for k := range want {
		if m1[k] != want[k] {
			t.Errorf("radix-1 moore[%d] = %d, want %d", k, m1[k], want[k])
		}
	}
}

func TestExactLatOpTiny(t *testing.T) {
	// 1x4 line, large class: links may span up to 2 columns. Radix 2.
	// Exact B&B must complete and the annealer must match its optimum.
	cfg := Config{Grid: layout.NewGrid(1, 4), Class: layout.Large, Radix: 2,
		Objective: LatOp, Seed: 3, Iterations: 4000, Restarts: 2}
	exact, err := ExactLatOp(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Optimal {
		t.Fatal("tiny instance should be solved to optimality")
	}
	ann, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	annTotal := mustTotalHops(t, ann.Topology)
	if float64(annTotal) < exact.Objective-1e-9 {
		t.Fatalf("annealer total %d beats 'exact' optimum %v: B&B is wrong", annTotal, exact.Objective)
	}
	if float64(annTotal) > exact.Objective+1e-9 {
		t.Logf("annealer %d vs optimum %v (allowed, but unexpected on tiny instance)", annTotal, exact.Objective)
	}
}

func TestExactLatOpRespectsConstraints(t *testing.T) {
	cfg := Config{Grid: layout.NewGrid(2, 3), Class: layout.Small, Radix: 2,
		Objective: LatOp, Seed: 5, Iterations: 3000, Restarts: 1}
	res, err := ExactLatOp(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Topology.IsConnected() || !res.Topology.RespectsRadix(2) || !res.Topology.RespectsLinkLengths() {
		t.Fatal("B&B result violates constraints")
	}
	if res.Objective < res.Bound-1e-9 {
		t.Errorf("optimum %v below lower bound %v", res.Objective, res.Bound)
	}
}

func TestProgressTraceMonotone(t *testing.T) {
	var points []ProgressPoint
	cfg := quickCfg(layout.Grid4x5, layout.Medium, LatOp)
	cfg.Progress = func(p ProgressPoint) { points = append(points, p) }
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 || len(points) != len(res.Trace) {
		t.Fatalf("%d progress points for a %d-point trace", len(points), len(res.Trace))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Incumbent > points[i-1].Incumbent+1e-9 {
			t.Errorf("LatOp incumbent must be non-increasing: %v -> %v",
				points[i-1].Incumbent, points[i].Incumbent)
		}
		if points[i].Steps < points[i-1].Steps {
			t.Errorf("steps must be non-decreasing: %d -> %d", points[i-1].Steps, points[i].Steps)
		}
	}
	// The last point cannot lie beyond the budget: Restarts runs of
	// Iterations steps each.
	if last := points[len(points)-1].Steps; last > int64(cfg.Restarts*cfg.Iterations) {
		t.Errorf("last point at step %d, beyond the %d-step budget", last, cfg.Restarts*cfg.Iterations)
	}
	for i, p := range points {
		if p.Gap < 0 || p.Gap > 1 {
			t.Errorf("gap %v out of [0,1]", p.Gap)
		}
		if p != res.Trace[i] {
			t.Errorf("progress point %d %+v differs from trace %+v", i, p, res.Trace[i])
		}
	}
}

// Negative budgets are rejected, through the cache as well, instead of
// panicking (negative Restarts) or silently searching nothing (negative
// Iterations); so are weights that are not finite and non-negative,
// which a plain "< 0" check lets through as NaN. Demand weights count
// too: a NaN or infinite one poisons the objective, and a negative one
// breaks the annealer's removal bound and the rule that additions are
// always accepted.
func TestNegativeBudgetRejected(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	demand := func(w float64) func(*Config) {
		return func(c *Config) {
			c.Objective = Weighted
			c.Weights = traffic.Shuffle(c.Grid.N()).WeightMatrix()
			c.Weights[1][3] = w
		}
	}
	for name, mutate := range map[string]func(*Config){
		"iterations":            func(c *Config) { c.Iterations = -5 },
		"restarts":              func(c *Config) { c.Restarts = -1 },
		"population iterations": func(c *Config) { c.Iterations = -1; c.Population = 2 },
		"energy weight NaN":     func(c *Config) { c.EnergyWeight = math.NaN() },
		"energy weight +Inf":    func(c *Config) { c.EnergyWeight = math.Inf(1) },
		"robust weight NaN":     func(c *Config) { c.RobustWeight = math.NaN() },
		"robust weight -Inf":    func(c *Config) { c.RobustWeight = math.Inf(-1) },
		"demand weight -1":      demand(-1),
		"demand weight NaN":     demand(math.NaN()),
		"demand weight +Inf":    demand(math.Inf(1)),
	} {
		cfg := quickCfg(layout.Grid4x5, layout.Medium, LatOp)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted the config", name)
		}
		if _, _, err := CachedGenerate(st, cfg); err == nil {
			t.Errorf("%s: CachedGenerate accepted the config", name)
		}
		if _, ok := cfg.CachePayload(); ok {
			t.Errorf("%s: the config has a cache payload", name)
		}
	}
	if n := storeEntryCount(t, st); n != 0 {
		t.Errorf("rejected configs wrote %d blobs", n)
	}
}

func TestObjectiveString(t *testing.T) {
	if LatOp.String() != "LatOp" || SCOp.String() != "SCOp" || Weighted.String() != "Weighted" {
		t.Error("objective names changed; paper-style names expected")
	}
}

// Property: generated topologies always satisfy C1-C3 regardless of seed.
func TestGenerateConstraintProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{Grid: layout.NewGrid(3, 3), Class: layout.Medium, Radix: 3,
			Objective: LatOp, Seed: seed, Iterations: 1500, Restarts: 1}
		res, err := Generate(cfg)
		if err != nil {
			return false
		}
		tp := res.Topology
		return tp.IsConnected() && tp.RespectsRadix(3) && tp.RespectsLinkLengths()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
