package bitgraph

import (
	"math"
	"math/rand"
	"testing"
)

// randomConnected builds a random graph seeded with a ring so most
// mutations keep it connected.
func randomConnected(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.Add(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				g.Add(i, j)
			}
		}
	}
	return g
}

func randomPool(n, cuts int, rng *rand.Rand) []Set {
	pool := make([]Set, 0, cuts)
	for len(pool) < cuts {
		m := NewSet(n)
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				m.Add(v)
			}
		}
		if c := m.Count(); c == 0 || c == n {
			continue
		}
		pool = append(pool, m)
	}
	return pool
}

func TestEvalMatchesHopStats(t *testing.T) {
	for _, n := range []int{7, 20, 70, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := randomConnected(n, 0.1, rng)
		e := NewEval(g, nil)
		total, unreach, diam := g.HopStats()
		if e.Total() != total || e.Unreachable() != unreach || e.Diameter() != diam {
			t.Errorf("n=%d: eval (%d,%d,%d) != HopStats (%d,%d,%d)",
				n, e.Total(), e.Unreachable(), e.Diameter(), total, unreach, diam)
		}
	}
}

// The core cross-check: randomized Add/Remove sequences with mixed
// Commit/Rollback decisions must keep every incremental aggregate
// bit-identical to a from-scratch recomputation.
func TestEvalIncrementalMatchesRecompute(t *testing.T) {
	// Without diameter tracking, single-word graphs (n <= 64) settle
	// rows through the decremental repair and fused BFS, weighted or
	// not; diameter tracking and multi-word graphs take the full-BFS
	// recompute. Every combination must stay exact.
	cases := []struct {
		n                  int
		weighted, diameter bool
	}{
		{9, false, false},
		{25, false, false},
		{21, true, false},
		{20, true, true},
		{66, true, true},
		{70, true, false},
		{90, true, true},
	}
	for _, c := range cases {
		n := c.n
		rng := rand.New(rand.NewSource(int64(n) * 31))
		g := randomConnected(n, 0.08, rng)
		var w [][]float64
		if c.weighted {
			w = make([][]float64, n)
			for i := range w {
				w[i] = make([]float64, n)
				for j := range w[i] {
					if i != j && rng.Float64() < 0.3 {
						w[i][j] = rng.Float64() * 4
					}
				}
			}
		}
		e := NewEval(g, w)
		if c.diameter {
			e.TrackDiameter()
		}
		for _, m := range randomPool(n, 8, rng) {
			e.AddCut(m)
		}
		for step := 0; step < 300; step++ {
			e.Begin()
			// Apply 1-3 random ops (mimics add/remove/swap moves).
			ops := 1 + rng.Intn(3)
			for o := 0; o < ops; o++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a == b {
					continue
				}
				if g.Has(a, b) {
					e.Remove(a, b)
				} else {
					e.Add(a, b)
				}
			}
			if rng.Intn(2) == 0 {
				e.Commit()
			} else {
				e.Rollback()
			}
			if step%25 == 0 || step == 299 {
				if err := e.CheckConsistency(); err != nil {
					t.Fatalf("n=%d step %d: %v", n, step, err)
				}
				if w != nil {
					wantW, wantWU := g.WeightedHops(w)
					gotW, gotWU := e.WeightedTotal()
					if math.Abs(gotW-wantW) > 1e-9 || gotWU != wantWU {
						t.Fatalf("n=%d step %d: weighted (%v,%d) != (%v,%d)",
							n, step, gotW, gotWU, wantW, wantWU)
					}
				}
			}
		}
	}
}

func TestEvalRollbackRestoresExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20
	g := randomConnected(n, 0.1, rng)
	e := NewEval(g, nil)
	for _, m := range randomPool(n, 5, rng) {
		e.AddCut(m)
	}
	total, unreach, diam := e.Total(), e.Unreachable(), e.Diameter()
	pm := e.PoolMin()
	links := g.NumLinks()
	e.Begin()
	e.Remove(0, 1)
	e.Add(3, 17)
	e.Remove(5, 6)
	e.Rollback()
	if e.Total() != total || e.Unreachable() != unreach || e.Diameter() != diam {
		t.Errorf("rollback aggregates (%d,%d,%d) != (%d,%d,%d)",
			e.Total(), e.Unreachable(), e.Diameter(), total, unreach, diam)
	}
	if e.PoolMin() != pm {
		t.Errorf("rollback pool min %v != %v", e.PoolMin(), pm)
	}
	if g.NumLinks() != links {
		t.Errorf("rollback links %d != %d", g.NumLinks(), links)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// AddCut must treat a partition and its complement within the n-node
// universe as the same cut (regression for the old ^mask dedup bug that
// compared against the complement over all 64 bits).
func TestEvalAddCutComplementDedup(t *testing.T) {
	g := New(10)
	for i := 0; i < 10; i++ {
		g.Add(i, (i+1)%10)
	}
	e := NewEval(g, nil)
	m := SetOf(10, 0, 1, 2, 3)
	if !e.AddCut(m) {
		t.Fatal("first AddCut must grow the pool")
	}
	if e.AddCut(m.Clone()) {
		t.Error("identical cut must be deduplicated")
	}
	comp := m.ComplementWithin(g.Full())
	if e.AddCut(comp) {
		t.Error("complement-within-n cut must be deduplicated")
	}
	if e.NumCuts() != 1 {
		t.Errorf("pool size %d, want 1", e.NumCuts())
	}
}

func TestEvalPoolMinMatchesGraph(t *testing.T) {
	for _, n := range []int{12, 30, 80} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := randomConnected(n, 0.12, rng)
		pool := randomPool(n, 10, rng)
		e := NewEval(g, nil)
		for _, m := range pool {
			e.AddCut(m)
		}
		if got, want := e.PoolMin(), g.PoolMin(pool); got != want {
			t.Errorf("n=%d: eval pool min %v != graph pool min %v", n, got, want)
		}
		// Mutate and compare again: counters must track exactly.
		for step := 0; step < 50; step++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if g.Has(a, b) {
				e.Remove(a, b)
			} else {
				e.Add(a, b)
			}
			if got, want := e.PoolMin(), g.PoolMin(pool); got != want {
				t.Fatalf("n=%d step %d: eval pool min %v != graph %v", n, step, got, want)
			}
		}
	}
}

func TestWeightedHopsMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 70
	g := randomConnected(n, 0.05, rng)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			if i != j {
				w[i][j] = 1
			}
		}
	}
	wt, wu := g.WeightedHops(w)
	total, unreach, _ := g.HopStats()
	if wu != unreach {
		t.Errorf("weighted unreachable %d != %d", wu, unreach)
	}
	if math.Abs(wt-float64(total)) > 1e-6 {
		t.Errorf("unit-weight total %v != hop total %d", wt, total)
	}
}

// The removal peeks must agree exactly with the mutation they predict:
// PeekRemovePoolMin with PoolMin after a real Remove (bit for bit), and
// Requeue with the link order a Remove+Rollback leaves behind, which is
// what LinkAt-sampling callers observe.
func TestEvalRemovalPeeksMatchRollback(t *testing.T) {
	for _, n := range []int{12, 20, 70} {
		rng := rand.New(rand.NewSource(int64(n) * 7))
		g := randomConnected(n, 0.12, rng)
		twin := g.Clone()
		pool := randomPool(n, 10, rng)
		e := NewEval(g, nil)
		et := NewEval(twin, nil)
		for _, m := range pool {
			e.AddCut(m)
			et.AddCut(m)
		}
		for step := 0; step < 200; step++ {
			l := g.LinkAt(rng.Intn(g.NumLinks()))
			now, after := e.PeekRemovePoolMin(l.A, l.B)
			if got := e.PoolMin(); math.Float64bits(got) != math.Float64bits(now) {
				t.Fatalf("n=%d step %d: PeekRemovePoolMin now = %v, PoolMin = %v", n, step, now, got)
			}
			e.Begin()
			e.Remove(l.A, l.B)
			if got := e.PoolMin(); math.Float64bits(got) != math.Float64bits(after) {
				t.Fatalf("n=%d step %d: PeekRemovePoolMin(%d,%d) after = %v, PoolMin after Remove = %v",
					n, step, l.A, l.B, after, got)
			}
			_ = e.Total() // settle the rows, as a scored rejection does
			e.Rollback()
			et.Requeue(l.A, l.B)
			for i, want := range g.Links() {
				if got := twin.LinkAt(i); got != want {
					t.Fatalf("n=%d step %d: after Requeue link %d = %v, rollback left %v", n, step, i, got, want)
				}
			}
			// Mix in committed mutations so the two graphs keep moving.
			if rng.Intn(4) == 0 {
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b && !g.Has(a, b) {
					e.Add(a, b)
					et.Add(a, b)
				}
			}
		}
		if now, after := e.PeekRemovePoolMin(0, 0); after != now || now != e.PoolMin() {
			t.Errorf("n=%d: peek of an absent link (%v, %v) != PoolMin %v", n, now, after, e.PoolMin())
		}
		if err := et.CheckConsistency(); err != nil {
			t.Errorf("n=%d: Requeue left the evaluator inconsistent: %v", n, err)
		}
	}
}
