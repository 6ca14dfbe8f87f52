package synth

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"netsmith/internal/bitgraph"
	"netsmith/internal/layout"
	"netsmith/internal/store"
	"netsmith/internal/traffic"
)

// traceValues renders a progress trace, step counts included.
func traceValues(res *Result) string {
	out := ""
	for _, p := range res.Trace {
		out += fmt.Sprintf("%d:%.17g/%.17g/%.17g;", p.Steps, p.Incumbent, p.Bound, p.Gap)
	}
	return out
}

// Fixed-restart Generate must be a pure function of its Config: the
// parallel restarts derive their RNG streams from (Seed, restart index)
// alone and merge by (score, restart index), so the topology is
// identical across runs and across GOMAXPROCS settings.
func TestGenerateDeterministicAcrossRuns(t *testing.T) {
	for _, obj := range []Objective{LatOp, SCOp} {
		cfg := quickCfg(layout.Grid4x5, layout.Medium, obj)
		cfg.Iterations = 4000
		cfg.Restarts = 3
		first, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			again, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := again.Topology.CanonicalLinkList(), first.Topology.CanonicalLinkList(); got != want {
				t.Fatalf("%v: run %d produced a different topology", obj, run)
			}
			if again.Objective != first.Objective {
				t.Fatalf("%v: objective %v != %v across runs", obj, again.Objective, first.Objective)
			}
			if got, want := traceValues(again), traceValues(first); got != want {
				t.Fatalf("%v: run %d produced a different progress trace:\n%s\nvs\n%s", obj, run, got, want)
			}
		}
	}
}

func TestGenerateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	latop := quickCfg(layout.Grid4x5, layout.Medium, LatOp)
	scop := quickCfg(layout.Grid4x5, layout.Medium, SCOp)
	// The separation and fragility oracle rounds re-anneal after the
	// restarts merge; their steps continue the same count.
	oracles := quickCfg(layout.Grid4x5, layout.Medium, LatOp)
	oracles.RobustWeight, oracles.MinCutBW = 1, 0.1
	for name, cfg := range map[string]Config{"latop": latop, "scop": scop, "robust+mincut": oracles} {
		cfg.Iterations = 4000
		cfg.Restarts = 4
		var want, wantTrace string
		for _, procs := range []int{1, 4, 2} {
			runtime.GOMAXPROCS(procs)
			res, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			canon := res.Topology.CanonicalLinkList()
			trace := traceValues(res)
			if want == "" {
				want, wantTrace = canon, trace
			} else if canon != want {
				t.Fatalf("%s: GOMAXPROCS=%d produced a different topology", name, procs)
			} else if trace != wantTrace {
				t.Fatalf("%s: GOMAXPROCS=%d produced a different progress trace", name, procs)
			}
		}
	}
}

// Population mode must honor the same purity contract as fixed-restart
// mode: the breeding plan is drawn sequentially, children are keyed by
// index and the elitist merge is sequential, so evolution is a pure
// function of the Config at any GOMAXPROCS.
func TestPopulationDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, obj := range []Objective{LatOp, SCOp} {
		cfg := quickCfg(layout.Grid4x5, layout.Medium, obj)
		cfg.Iterations = 1200
		cfg.Restarts = 1
		cfg.Population = 4
		cfg.Generations = 2
		var want, wantTrace string
		var wantObj, wantBound float64
		for _, procs := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(procs)
			res, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			canon := res.Topology.CanonicalLinkList()
			trace := traceValues(res)
			if want == "" {
				want, wantTrace = canon, trace
				wantObj, wantBound = res.Objective, res.Bound
			} else if canon != want {
				t.Fatalf("%v: GOMAXPROCS=%d produced a different topology", obj, procs)
			} else if trace != wantTrace {
				t.Fatalf("%v: GOMAXPROCS=%d produced a different progress trace", obj, procs)
			} else if res.Objective != wantObj || res.Bound != wantBound {
				t.Fatalf("%v: GOMAXPROCS=%d produced different metrics", obj, procs)
			}
		}
	}
}

// The member store is a bit-exact cache of a pure computation: a cold
// run (computing and persisting members), a warm run (reloading them)
// and a store-less run must evolve identically, topology, metrics and
// trace included.
func TestPopulationDeterministicWarmStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(layout.Grid4x5, layout.Medium, LatOp)
	cfg.Iterations = 1200
	cfg.Restarts = 1
	cfg.Population = 4
	cfg.Generations = 2
	cfg.Store = st
	cold, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = nil
	bare, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Topology.CanonicalLinkList()
	for name, res := range map[string]*Result{"warm": warm, "store-less": bare} {
		if got := res.Topology.CanonicalLinkList(); got != want {
			t.Errorf("%s run produced a different topology", name)
		}
		if res.Objective != cold.Objective || res.Bound != cold.Bound {
			t.Errorf("%s run produced different metrics", name)
		}
		if got, wantT := traceValues(res), traceValues(cold); got != wantT {
			t.Errorf("%s run produced a different progress trace", name)
		}
	}
	// Weight-agnostic member keys: a config differing only in seed (and
	// thus evolving differently) still reloads the same stored members.
	// Observable here as the store growing no new member blobs.
	before := storeEntryCount(t, st)
	cfg.Store = st
	cfg.Seed += 17
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	if after := storeEntryCount(t, st); after != before {
		t.Errorf("nearby-config run wrote %d new member blobs, want full reuse", after-before)
	}
}

func storeEntryCount(t *testing.T, st *store.Store) int {
	t.Helper()
	n, err := st.Len()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// The incremental score must be bit-identical to a from-scratch
// recomputation at any point of a randomized mutate/commit/rollback
// sequence, for every objective and constraint combination — this is
// what lets the annealer trust delta queries outright.
func TestIncrementalScoreMatchesRecompute(t *testing.T) {
	n4x5 := layout.Grid4x5.N()
	shuffle := make([][]float64, n4x5)
	for i := range shuffle {
		shuffle[i] = make([]float64, n4x5)
		shuffle[i][(2*i+3)%n4x5] = 1.5
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"latop", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, Radix: 4}},
		{"scop", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: SCOp, Radix: 4}},
		{"diameter", Config{Grid: layout.NewGrid(3, 4), Class: layout.Large, Objective: LatOp, Radix: 3, MaxDiameter: 5}},
		{"mincut", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, Radix: 4, MinCutBW: 0.06}},
		{"weighted", Config{Grid: layout.Grid4x5, Class: layout.Large, Objective: Weighted, Radix: 4, Weights: shuffle}},
		{"symmetric", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, Radix: 4, Symmetric: true}},
		{"multiword", Config{Grid: layout.NewGrid(9, 9), Class: layout.Medium, Objective: LatOp, Radix: 4}},
		// Energy term: integer milli-unit link costs keep the maintained
		// sum exact, so bit-identity must hold here too.
		{"energy", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, Radix: 4, EnergyWeight: 2.5}},
		{"energy-scop", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: SCOp, Radix: 4, EnergyWeight: 1.25}},
		// Fragility term: integer slack over degrees and pooled cut
		// crossings; must stay bit-identical like every other component.
		{"robust", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, Radix: 4, RobustWeight: 3}},
		{"robust-energy", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, Radix: 4, RobustWeight: 2, EnergyWeight: 1.5}},
		{"robust-scop", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: SCOp, Radix: 4, RobustWeight: 1.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := (&tc.cfg).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			a := newAnnealer(cfg)
			rng := newFastRand(7)
			state := stateFromTopology(seedTopology(cfg))
			a.fillRandom(state, rng)
			ctx := a.newSearchCtx(state)
			steps := 400
			if cfg.Grid.N() > 64 {
				steps = 120
			}
			for i := 0; i < steps; i++ {
				mv, ok := ctx.propose(rng)
				if !ok {
					continue
				}
				if mv.kind == moveAdd {
					ctx.doAdd(mv.af, mv.at)
				} else {
					ctx.begin()
					if mv.kind == moveSwap {
						ctx.doAdd(mv.af, mv.at)
					}
					ctx.doRemove(mv.rf, mv.rt)
					if rng.Float64() < 0.5 {
						ctx.commit()
					} else {
						ctx.rollback()
					}
				}
				if i%20 != 0 {
					continue
				}
				got := ctx.score()
				want := a.eval.fullScore(ctx.ev.Graph())
				if got != want {
					t.Fatalf("step %d: incremental score %v != recomputed %v", i, got, want)
				}
				if err := ctx.ev.CheckConsistency(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		})
	}
}

// The peek-first rejections are exact only if their bounds never
// exceed the score delta the transactional path computes for the same
// removal, floats included. Walk random states of the SCOp configs
// that take the cut-first rejection, C7 bounds included, of the
// Weighted (ShufOpt) configs that take the weighted bound, and of the
// LatOp configs that take the pair bound on removals and on the
// removal half of swaps (fragility and C7 terms included; single-word
// grids only, as in the annealer), and check each move against its
// real delta. In the heavy ShufOpt row every fourth
// source's demand is ten disconnection penalties, so losing that pair
// costs less than one more hop: its peeks must hit the disconnection
// guard, and bounded removals must lose light pairs.
func TestRemovalBoundBelowExactDelta(t *testing.T) {
	shuffle := func(g *layout.Grid) [][]float64 { return traffic.Shuffle(g.N()).WeightMatrix() }
	heavy := shuffle(layout.Grid4x5)
	for s := 1; s < len(heavy); s += 4 {
		for d := range heavy[s] {
			heavy[s][d] *= 10 * penaltyDisconnected
		}
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"scop", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: SCOp}},
		{"scop-6x5", Config{Grid: layout.Grid6x5, Class: layout.Medium, Objective: SCOp}},
		{"scop-robust", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: SCOp, RobustWeight: 1}},
		{"scop-diameter", Config{Grid: layout.NewGrid(3, 4), Class: layout.Large, Objective: SCOp, Radix: 3, MaxDiameter: 3}},
		{"scop-mincut", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: SCOp, MinCutBW: 0.06}},
		// A bound above any reachable pool minimum keeps the C7 penalty
		// active on every state.
		{"scop-mincut-violated", Config{Grid: layout.Grid4x5, Class: layout.Small, Objective: SCOp, MinCutBW: 0.5}},
		{"scop-multiword", Config{Grid: layout.NewGrid(9, 8), Class: layout.Medium, Objective: SCOp}},
		{"shufopt", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: Weighted, Weights: shuffle(layout.Grid4x5)}},
		{"shufopt-8x6", Config{Grid: layout.Grid8x6, Class: layout.Medium, Objective: Weighted, Weights: shuffle(layout.Grid8x6)}},
		{"shufopt-heavy", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: Weighted, Radix: 2, Weights: heavy}},
		{"latop", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp}},
		{"latop-8x6", Config{Grid: layout.Grid8x6, Class: layout.Medium, Objective: LatOp}},
		{"latop-robust", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, RobustWeight: 1}},
		{"latop-mincut", Config{Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp, MinCutBW: 0.06}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := (&tc.cfg).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			a := newAnnealer(cfg)
			rng := newFastRand(11)
			state := stateFromTopology(seedTopology(cfg))
			a.fillRandom(state, rng)
			ctx := a.newSearchCtx(state)
			weighted := cfg.Objective == Weighted
			latop := cfg.Objective == LatOp
			moved, guarded, lost, swapped := 0, 0, 0, 0
			for i := 0; i < 600; i++ {
				mv, ok := ctx.propose(rng)
				if !ok {
					continue
				}
				if mv.kind == moveAdd {
					ctx.doAdd(mv.af, mv.at)
					continue
				}
				cur := ctx.score()
				_, lost0 := ctx.ev.WeightedTotal()
				lb := math.Inf(-1)
				switch {
				case mv.kind == moveRemove && weighted:
					pending, wlb, ok := ctx.weightedRemovalBound(mv.rf, mv.rt, cur)
					switch {
					case ok && wlb > 0:
						moved++
						lb = wlb
					case !ok && pending > 0:
						guarded++
					}
				case mv.kind == moveRemove && latop:
					if lb = ctx.pairBound(mv.rf, mv.rt, 0, cur); lb > 0 {
						moved++
					}
				case mv.kind == moveRemove:
					if now, after := ctx.ev.PeekRemovePoolMin(mv.rf, mv.rt); after < now {
						moved++
					}
					lb = ctx.removalBound(mv.rf, mv.rt, ctx.ev.PeekRemove(mv.rf, mv.rt), cur)
				}
				ctx.begin()
				if mv.kind == moveSwap {
					ctx.doAdd(mv.af, mv.at)
					if latop {
						if lb = ctx.pairBound(mv.rf, mv.rt, ctx.score()-cur, cur); lb > 0 {
							swapped++
						}
					}
				}
				ctx.doRemove(mv.rf, mv.rt)
				if delta := ctx.score() - cur; lb > delta {
					t.Fatalf("step %d: move %+v: bound %v exceeds exact delta %v", i, mv, lb, delta)
				}
				if _, lost1 := ctx.ev.WeightedTotal(); weighted && lb > 0 && lost1 > lost0 {
					lost++
				}
				if rng.Float64() < 0.3 {
					ctx.commit()
				} else {
					ctx.rollback()
				}
			}
			if moved == 0 {
				t.Error("no removal lowered the pool minimum or had a positive weighted or pair bound; the bound went untested")
			}
			if latop && swapped == 0 {
				t.Error("no swap had a positive pair bound; the swap bound went untested")
			}
			if tc.name == "shufopt-heavy" && (guarded == 0 || lost == 0) {
				t.Errorf("%d weighted peeks hit the disconnection guard and %d bounded removals lost a pair; both must occur",
					guarded, lost)
			}
		})
	}
}

// Regression for the complement-dedup bug: addCut used to compare a
// candidate against ^mask over all 64 bits instead of the complement
// within the n-node universe, so complementary cuts were never
// deduplicated.
func TestAddCutComplementDedup(t *testing.T) {
	cfg, err := (&Config{Grid: layout.Grid4x5, Class: layout.Medium}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e := newEvaluator(cfg)
	n0 := len(e.cutPool)
	if n0 == 0 {
		t.Fatal("geometric cut pool is empty")
	}
	m := e.cutPool[0]
	if e.addCut(m) {
		t.Error("identical cut must not grow the pool")
	}
	comp := m.ComplementWithin(bitgraph.FullSet(cfg.Grid.N()))
	if e.addCut(comp) {
		t.Error("complement-within-n cut describes the same partition and must be deduplicated")
	}
	if len(e.cutPool) != n0 {
		t.Fatalf("pool grew from %d to %d", n0, len(e.cutPool))
	}
	fresh := bitgraph.SetOf(cfg.Grid.N(), 0, 7, 13)
	if !e.addCut(fresh) {
		t.Error("genuinely new cut must grow the pool")
	}
}

// A 100-router grid must synthesize end to end through Generate: the
// multi-word bitset path has no 64-router cap.
func TestGenerate100RoutersEndToEnd(t *testing.T) {
	cfg := Config{Grid: layout.Grid10x10, Class: layout.Medium, Objective: LatOp,
		Radix: 4, Seed: 2, Iterations: 2500, Restarts: 1}
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := res.Topology
	if tp.N() != 100 {
		t.Fatalf("expected 100 routers, got %d", tp.N())
	}
	if !tp.IsConnected() {
		t.Fatal("100-router topology disconnected")
	}
	if !tp.RespectsRadix(4) || !tp.RespectsLinkLengths() {
		t.Fatal("100-router topology violates constraints")
	}
	// Even a quick run must beat the 10x10 mesh (avg 6.67).
	if avg := tp.AverageHops(); avg >= 6.0 {
		t.Errorf("100-router avg hops %.3f not better than mesh-like 6.0", avg)
	}
	if res.Bound <= 0 || res.Gap < 0 || res.Gap > 1 {
		t.Errorf("bound/gap not sane: bound=%v gap=%v", res.Bound, res.Gap)
	}
}
