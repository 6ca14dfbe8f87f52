package synth

import (
	"fmt"
	"math"
	"testing"

	"netsmith/internal/bitgraph"
	"netsmith/internal/layout"
)

// popTestAnnealer builds a ready annealer for operator-level tests.
func popTestAnnealer(t testing.TB, raw Config) *annealer {
	t.Helper()
	cfg, err := (&raw).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return newAnnealer(cfg)
}

// checkChildInvariants asserts the crossover/repair output contract:
// every link comes from the candidate set, port budgets hold, symmetry
// (when configured) holds, and the child is strongly connected.
func checkChildInvariants(t testing.TB, a *annealer, g *bitgraph.Graph) {
	t.Helper()
	for _, l := range g.Links() {
		if !a.validLink(l.A, l.B) {
			t.Fatalf("child uses link %d->%d outside the candidate set", l.A, l.B)
		}
		if a.cfg.Symmetric && !g.Has(l.B, l.A) {
			t.Fatalf("symmetric child misses reverse of %d->%d", l.A, l.B)
		}
	}
	for v := 0; v < g.N(); v++ {
		if g.OutDeg[v] > a.cfg.Radix || g.InDeg[v] > a.cfg.Radix {
			t.Fatalf("node %d degree (%d out / %d in) exceeds radix %d",
				v, g.OutDeg[v], g.InDeg[v], a.cfg.Radix)
		}
	}
	if _, unreachable, _ := g.HopStats(); unreachable > 0 {
		t.Fatalf("child not strongly connected: %d unreachable pairs", unreachable)
	}
}

// Crossover is a constrained operator, not a best-effort one: every
// child it reports ok must already satisfy the full constraint set.
func TestCrossoverChildrenFeasible(t *testing.T) {
	for _, symmetric := range []bool{false, true} {
		t.Run(fmt.Sprintf("symmetric=%v", symmetric), func(t *testing.T) {
			a := popTestAnnealer(t, Config{
				Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp,
				Radix: 4, Symmetric: symmetric, Seed: 3, Iterations: 800, Restarts: 1,
			})
			pa := a.annealRestart(0, 800).snap.CanonicalClone()
			pb := a.annealRestart(1, 800).snap.CanonicalClone()
			ok := 0
			for seed := int64(0); seed < 24; seed++ {
				child, fine := a.crossover(pa, pb, newFastRand(seed))
				if !fine {
					continue
				}
				ok++
				checkChildInvariants(t, a, child)
			}
			if ok == 0 {
				t.Fatal("no crossover succeeded; property test is vacuous")
			}
		})
	}
}

// evalFingerprint renders every externally observable distance of an
// Eval; two Evals with equal fingerprints answer all queries alike.
func evalFingerprint(ev *bitgraph.Eval) string {
	n := ev.Graph().N()
	out := fmt.Sprintf("total=%d unreachable=%d;", ev.Total(), ev.Unreachable())
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			out += fmt.Sprintf("%d,", ev.Dist(s, d))
		}
	}
	return out
}

// Journaled repair must be free when it fails: every probe that does
// not reduce the unreachable count is rolled back, and afterwards —
// whether repair succeeded or gave up — the evaluator is bit-identical
// to a fresh recompute over its final graph.
func TestRepairRollbackLeavesEvalExact(t *testing.T) {
	a := popTestAnnealer(t, Config{
		Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp,
		Radix: 4, Seed: 1, Iterations: 100, Restarts: 1,
	})

	// A sparse fragment: the first few candidate links only, far from
	// connected, so repair both commits and rolls back many probes.
	frag := bitgraph.New(a.cfg.Grid.N())
	for _, l := range a.valid[:6] {
		if feasibleAdd(frag, &a.cfg, l.From, l.To) {
			frag.Add(l.From, l.To)
		}
	}
	ev := bitgraph.NewEval(frag, nil)
	if !a.repairConnectivity(ev, newFastRand(11)) {
		t.Fatal("repair failed on a repairable fragment")
	}
	if err := ev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	fresh := bitgraph.NewEval(ev.Graph().Clone(), nil)
	if got, want := evalFingerprint(ev), evalFingerprint(fresh); got != want {
		t.Fatal("repaired Eval differs from a fresh recompute of the same graph")
	}

	// An unrepairable child: radix 1, nodes 0 and 1 saturated into a
	// private 2-cycle. No feasible add can ever reconnect them, so
	// repair must sweep, roll back its failed probes and report false
	// — leaving the Eval exactly as a fresh recompute.
	b := popTestAnnealer(t, Config{
		Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp,
		Radix: 1, Seed: 1, Iterations: 100, Restarts: 1,
	})
	if !b.validLink(0, 1) || !b.validLink(1, 0) {
		t.Skip("grid class lacks the 0<->1 candidate pair")
	}
	dead := bitgraph.New(b.cfg.Grid.N())
	dead.Add(0, 1)
	dead.Add(1, 0)
	ev = bitgraph.NewEval(dead, nil)
	if b.repairConnectivity(ev, newFastRand(5)) {
		t.Fatal("repair claimed success on a saturated, disconnected child")
	}
	if err := ev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	fresh = bitgraph.NewEval(ev.Graph().Clone(), nil)
	if got, want := evalFingerprint(ev), evalFingerprint(fresh); got != want {
		t.Fatal("failed repair left the Eval different from a fresh recompute")
	}
}

// popMerge semantics: ascending score, ties keep the earlier (parent)
// entry, duplicate link sets collapse, pool is capped at size.
func TestPopMergeElitistDedup(t *testing.T) {
	g := func(links ...[2]int) *bitgraph.Graph {
		gr := bitgraph.New(4)
		for _, l := range links {
			gr.Add(l[0], l[1])
		}
		return gr
	}
	ring := g([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})
	chord := g([2]int{0, 1}, [2]int{1, 3}, [2]int{3, 0})
	star := g([2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	parents := []individual{{ring, 1.0}, {chord, 3.0}}
	children := []individual{
		{star, 1.0},                  // ties parent ring: parent must stay first
		{ring.CanonicalClone(), 0.5}, // better score but duplicate link set of ring
		{},                           // discarded child (nil graph)
	}
	out := popMerge(parents, children, 2)
	if len(out) != 2 {
		t.Fatalf("merge kept %d individuals, want 2", len(out))
	}
	// The duplicate ring at 0.5 wins slot 0 (deduped against the 1.0
	// parent copy which sorts later), then the 1.0 tie resolves
	// parent-first — but ring IS the parent's link set, so slot 1 is
	// the tied child star.
	if linkKey(out[0].g) != linkKey(ring) || out[0].score != 0.5 {
		t.Fatalf("slot 0 = %v, want ring at 0.5", out[0].score)
	}
	if linkKey(out[1].g) != linkKey(star) || out[1].score != 1.0 {
		t.Fatalf("slot 1 = %v, want star at 1.0", out[1].score)
	}
}

func TestHopelessPruning(t *testing.T) {
	a := popTestAnnealer(t, Config{
		Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp,
		Radix: 4, Seed: 1, Iterations: 100, Restarts: 1,
	})
	bound, worst := 100.0, 110.0
	if a.hopeless(105, bound, worst) {
		t.Error("child inside the elite band pruned")
	}
	if !a.hopeless(140, bound, worst) {
		t.Error("child beyond popHopeless*(worst-bound) kept")
	}
	if a.hopeless(1e9, math.Inf(-1), worst) {
		t.Error("pruning fired without a finite bound")
	}
	if a.hopeless(1e9, bound, bound) {
		t.Error("pruning fired with a degenerate (worst <= bound) band")
	}
}

// shuffleWeights is the classic shuffle permutation (rotate-left of the
// node index in log2(n) bits) as a traffic matrix.
func shuffleWeights(n int) [][]float64 {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	w := make([][]float64, n)
	for s := range w {
		w[s] = make([]float64, n)
		d := ((s << 1) | (s >> (bits - 1))) & (n - 1)
		if d != s {
			w[s][d] = 1
		}
	}
	return w
}

// The acceptance pin from the issue: on the 8x8 shuffle optimization,
// population mode at an equal evaluation budget must match or beat the
// parallel-restart annealer. Budgets: 6 restarts x 6000 iterations =
// 36000 steps vs population 4 x (1 init + 5 generations) x 1500 = 36000.
func TestPopulationBeatsRestartsEqualBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("equal-budget comparison is a long test")
	}
	w := shuffleWeights(64)
	base := Config{
		Grid: layout.NewGrid(8, 8), Class: layout.Medium, Objective: Weighted,
		Weights: w, Radix: 4, Seed: 9,
	}
	annealCfg := base
	annealCfg.Iterations, annealCfg.Restarts = 6000, 6
	popCfg := base
	popCfg.Iterations, popCfg.Restarts = 1500, 1
	popCfg.Population, popCfg.Generations = 4, 5

	annealRes, err := Generate(annealCfg)
	if err != nil {
		t.Fatal(err)
	}
	popRes, err := Generate(popCfg)
	if err != nil {
		t.Fatal(err)
	}
	if popRes.Objective > annealRes.Objective {
		t.Fatalf("population objective %v worse than restart annealer %v at equal budget",
			popRes.Objective, annealRes.Objective)
	}
}

// Config validation around the new knobs.
func TestPopulationConfigValidation(t *testing.T) {
	bad := Config{Grid: layout.Grid4x5, Class: layout.Medium, Population: 1}
	if _, err := (&bad).withDefaults(); err == nil {
		t.Error("population 1 accepted")
	}
	bad = Config{Grid: layout.Grid4x5, Class: layout.Medium, Generations: 2}
	if _, err := (&bad).withDefaults(); err == nil {
		t.Error("generations without population accepted")
	}
	good := Config{Grid: layout.Grid4x5, Class: layout.Medium, Population: 4}
	cfg, err := (&good).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Generations != 8 {
		t.Errorf("generations defaulted to %d, want 8", cfg.Generations)
	}
}

// FuzzCrossoverRepair drives crossover + journaled repair with random
// feasible parents (random fill, then random link drops, so parents are
// frequently disconnected) and a random operator stream: no panics, and
// every child reported ok satisfies the full constraint set.
func FuzzCrossoverRepair(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3))
	f.Add(int64(-7), int64(0), int64(42))
	f.Add(int64(1<<40), int64(-1), int64(5))
	a := popTestAnnealer(f, Config{
		Grid: layout.NewGrid(3, 4), Class: layout.Medium, Objective: LatOp,
		Radix: 3, Seed: 1, Iterations: 100, Restarts: 1,
	})
	parent := func(seed int64) *bitgraph.Graph {
		rng := newFastRand(seed)
		g := bitgraph.New(a.cfg.Grid.N())
		a.fillRandom(g, rng)
		for _, l := range g.Links() {
			if rng.Float64() < 0.35 {
				g.Remove(l.A, l.B)
			}
		}
		return g.CanonicalClone()
	}
	f.Fuzz(func(t *testing.T, sa, sb, sc int64) {
		pa, pb := parent(sa), parent(sb)
		child, ok := a.crossover(pa, pb, newFastRand(sc))
		if !ok {
			return
		}
		checkChildInvariants(t, a, child)
	})
}
