package bitgraph

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
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

// randomDemands puts a demand from draw on about a fraction p of the
// ordered pairs.
func randomDemands(n int, p float64, rng *rand.Rand, draw func() float64) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			if i != j && rng.Float64() < p {
				w[i][j] = draw()
			}
		}
	}
	return w
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
	// Single-word graphs (n <= 64) settle rows through the decremental
	// repair and fused BFS, weighted or not; multi-word graphs take the
	// full-BFS recompute. Every row, its eccentricity included, must
	// stay exact.
	cases := []struct {
		n        int
		weighted bool
	}{
		{9, false},
		{25, false},
		{21, true},
		{20, true},
		{66, true},
		{70, true},
		{90, true},
	}
	for _, c := range cases {
		n := c.n
		rng := rand.New(rand.NewSource(int64(n) * 31))
		g := randomConnected(n, 0.08, rng)
		var w [][]float64
		if c.weighted {
			w = randomDemands(n, 0.3, rng, func() float64 { return rng.Float64() * 4 })
		}
		e := NewEval(g, w)
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

// A removal leaves every row it dirtied at reweighRow's ordered sum, as
// a full re-sum would, even when it changed none of the row's weighted
// targets: a row that repairAddFast last moved by deltas must be
// re-summed, since the two can round apart under demands like these.
// CheckConsistency holds every other row to the ordered sum bit for
// bit.
func TestEvalRemovalResumsWeightedRows(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(n, 0.1, rng)
	e := NewEval(g, randomDemands(n, 0.3, rng, func() float64 { return rng.Float64() * 4 }))
	resummed := 0
	for step := 0; step < 3000; step++ {
		if rng.Intn(2) == 0 || g.NumLinks() < 3*n {
			e.Add(rng.Intn(n), rng.Intn(n))
			continue
		}
		l := g.LinkAt(rng.Intn(g.NumLinks()))
		e.Remove(l.A, l.B)
		dirty := e.pendMask
		if e.wDelta&dirty != 0 {
			resummed++
		}
		e.flush()
		if left := e.wDelta & dirty; left != 0 {
			t.Fatalf("step %d: removing %d->%d left rows %b on repairAddFast's deltas", step, l.A, l.B, left)
		}
		if step%100 == 0 {
			if err := e.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if resummed == 0 {
		t.Error("no removal dirtied a row carrying repairAddFast's deltas")
	}
}

// The removal peeks must agree exactly with the mutation they predict:
// PeekRemovePoolMin with PoolMin after a real Remove (bit for bit),
// PeekRemove's count with the sources whose row a real Remove changes,
// PeekRemoveWeighted's count with PeekRemove's and its bound with the
// demand whose distance a real Remove changes (never above the rise
// that Remove causes), PeekRemovePairs' count with PeekRemove's and its
// pairs with the pairs whose distance a real Remove changes (never
// more, and exactly those when no walk overflowed), and Requeue with
// the link order a Remove+Rollback leaves behind, which is what
// LinkAt-sampling callers observe. The weighted and pair peeks mutate
// nothing: rows, level masks and aggregates stay as they were. They
// serve single-word graphs only, so the multi-word pass (n = 70) checks
// the other three.
func TestEvalRemovalPeeksMatchRollback(t *testing.T) {
	// Small integer demands keep weighted sums exact. A lost pair priced
	// low against demands of 1 to 3 makes the weighted peek's
	// disconnection guard fire on far targets and pass on near ones.
	const lostPair = 8
	for _, n := range []int{12, 20, 70} {
		rng := rand.New(rand.NewSource(int64(n) * 7))
		g := randomConnected(n, 0.12, rng)
		twin := g.Clone()
		pool := randomPool(n, 10, rng)
		e := NewEval(g, randomDemands(n, 0.3, rng, func() float64 { return float64(1 + rng.Intn(3)) }))
		et := NewEval(twin, nil)
		for _, m := range pool {
			e.AddCut(m)
			et.AddCut(m)
		}
		fast := n <= MaxFastNodes
		var bounded, guarded, exact, overflowed int
		for step := 0; step < 200; step++ {
			l := g.LinkAt(rng.Intn(g.NumLinks()))
			now, after := e.PeekRemovePoolMin(l.A, l.B)
			if got := e.PoolMin(); math.Float64bits(got) != math.Float64bits(now) {
				t.Fatalf("n=%d step %d: PeekRemovePoolMin now = %v, PoolMin = %v", n, step, now, got)
			}
			w0, lost0 := e.WeightedTotal()
			dist, levels, reach := slices.Clone(e.dist), slices.Clone(e.T), slices.Clone(e.reach)
			want := e.PeekRemove(l.A, l.B)
			var bound float64
			var ok, walkedAll bool
			var pairs, tDirty int
			if fast {
				var dirty int
				dirty, bound, ok = e.PeekRemoveWeighted(l.A, l.B, lostPair)
				if dirty != want {
					t.Fatalf("n=%d step %d: PeekRemoveWeighted(%d,%d) counts %d dirty sources, PeekRemove %d",
						n, step, l.A, l.B, dirty, want)
				}
				if !slices.Equal(dist, e.dist) || !slices.Equal(levels, e.T) || !slices.Equal(reach, e.reach) {
					t.Fatalf("n=%d step %d: PeekRemoveWeighted changed the rows or level masks", n, step)
				}
				if err := e.CheckConsistency(); err != nil {
					t.Fatalf("n=%d step %d: after PeekRemoveWeighted: %v", n, step, err)
				}
				// The unweighted twin has the same rows; peek its pairs.
				tWant := et.PeekRemove(l.A, l.B)
				tdist, tlevels, treach := slices.Clone(et.dist), slices.Clone(et.T), slices.Clone(et.reach)
				tDirty, pairs = et.PeekRemovePairs(l.A, l.B)
				if tDirty != tWant {
					t.Fatalf("n=%d step %d: PeekRemovePairs(%d,%d) counts %d dirty sources, PeekRemove %d",
						n, step, l.A, l.B, tDirty, tWant)
				}
				if !slices.Equal(tdist, et.dist) || !slices.Equal(tlevels, et.T) || !slices.Equal(treach, et.reach) {
					t.Fatalf("n=%d step %d: PeekRemovePairs changed the rows or level masks", n, step)
				}
				if err := et.CheckConsistency(); err != nil {
					t.Fatalf("n=%d step %d: after PeekRemovePairs: %v", n, step, err)
				}
				walkedAll = et.walkOver == 0
				switch {
				case ok && bound > 0:
					bounded++
				case !ok:
					guarded++
				}
			} else if !slices.Equal(dist, e.dist) {
				t.Fatalf("n=%d step %d: PeekRemove changed the rows", n, step)
			}
			e.Begin()
			e.Remove(l.A, l.B)
			if got := e.PoolMin(); math.Float64bits(got) != math.Float64bits(after) {
				t.Fatalf("n=%d step %d: PeekRemovePoolMin(%d,%d) after = %v, PoolMin after Remove = %v",
					n, step, l.A, l.B, after, got)
			}
			// Settle the rows, as a scored rejection does.
			w1, lost1 := e.WeightedTotal()
			changedRows := 0
			for s := 0; s < n; s++ {
				if !slices.Equal(e.dist[s*n:(s+1)*n], dist[s*n:(s+1)*n]) {
					changedRows++
				}
			}
			if changedRows != want {
				t.Fatalf("n=%d step %d: removing %d->%d: PeekRemove counts %d dirty sources, the removal changes %d rows",
					n, step, l.A, l.B, want, changedRows)
			}
			if fast {
				if rise := w1 - w0 + lostPair*float64(lost1-lost0); ok && bound > rise {
					t.Fatalf("n=%d step %d: removing %d->%d: weighted bound %v exceeds the rise %v",
						n, step, l.A, l.B, bound, rise)
				}
				var moved float64
				for i, d := range e.dist {
					if w := e.w[i/n][i%n]; w > 0 && d != dist[i] {
						moved += w
					}
				}
				if ok && bound != moved {
					t.Fatalf("n=%d step %d: removing %d->%d: weighted bound %v, demand whose distance changed %v",
						n, step, l.A, l.B, bound, moved)
				}
				lengthened := 0
				for i, d := range e.dist {
					if d != dist[i] {
						lengthened++
					}
				}
				switch {
				case pairs > lengthened || walkedAll && pairs != lengthened:
					t.Fatalf("n=%d step %d: removing %d->%d: PeekRemovePairs counts %d pairs (every walk complete: %v), the removal lengthens %d",
						n, step, l.A, l.B, pairs, walkedAll, lengthened)
				case walkedAll && pairs > tDirty:
					exact++
				case !walkedAll:
					overflowed++
				}
			}
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
		if fast && (bounded == 0 || guarded == 0) {
			t.Errorf("n=%d: %d weighted peeks gave a positive bound and %d hit the guard; both must occur",
				n, bounded, guarded)
		}
		if fast && (exact == 0 || overflowed == 0) {
			t.Errorf("n=%d: %d complete pair peeks counted more pairs than dirty sources and %d walks overflowed; both must occur",
				n, exact, overflowed)
		}
	}
}

// PeekRemovePairs keeps its walks for the Remove of the peeked link,
// whose flush re-levels from them instead of walking again. Walks taken
// before an Add, a Remove of another link or a Rollback describe rows
// that are gone, so the Remove of the peeked link must walk afresh; a
// flush from stale walks leaves wrong rows, which CheckConsistency
// catches. The other removal leaves the peeked link's tail when it can:
// both removals then often dirty that router alone, so only the link
// tells the two sets of walks apart.
func TestEvalPeekedWalksGoStale(t *testing.T) {
	for _, n := range []int{12, 24, 40} {
		rng := rand.New(rand.NewSource(int64(n) * 3))
		g := randomConnected(n, 0.1, rng)
		e := NewEval(g, nil)
		kept := 0
		for step := 0; step < 600; step++ {
			l := g.LinkAt(rng.Intn(g.NumLinks()))
			x, y := rng.Intn(n), rng.Intn(n)
			added := x != y && !g.Has(x, y)
			var other *Link
			switch step % 4 {
			case 0: // nothing in between: the Remove keeps the walks
				e.PeekRemovePairs(l.A, l.B)
			case 1:
				e.PeekRemovePairs(l.A, l.B)
				e.Add(x, y)
			case 2:
				for _, c := range g.Links() {
					if c != l && (other == nil || c.A == l.A) {
						other = &c
					}
				}
				e.PeekRemovePairs(l.A, l.B)
				e.Remove(other.A, other.B)
				e.Total()
			case 3:
				e.Begin()
				e.Add(x, y)
				e.PeekRemovePairs(l.A, l.B)
				e.Rollback()
			}
			e.Remove(l.A, l.B)
			if step%4 == 0 && e.pendMask != 0 && e.walkDirty == e.pendMask {
				kept++
			}
			e.Total()
			if err := e.CheckConsistency(); err != nil {
				t.Fatalf("n=%d step %d (case %d): removing %d->%d: %v", n, step, step%4, l.A, l.B, err)
			}
			// Restore the link set so the graph keeps its density.
			e.Add(l.A, l.B)
			if other != nil {
				e.Add(other.A, other.B)
			}
			if step%4 == 1 && added {
				e.Remove(x, y)
			}
		}
		if kept == 0 {
			t.Errorf("n=%d: no Remove kept its peek's walks", n)
		}
	}
}

// affectedScalar is the scalar affected-set walk that affectedFast's
// level-synchronous one replaced, kept as its oracle: a breadth-first
// wave from b that tests a successor's predecessors one row read at a
// time, and gives up as soon as more than limit vertices are affected.
func affectedScalar(e *Eval, s, b, limit int, depth int16) (aff uint64, ok bool) {
	row := e.dist[s*e.n : (s+1)*e.n]
	out, in := e.g.out, e.g.in
	aff = uint64(1) << uint(b)
	count := 1
	wave := []int32{int32(b)}
	for head := 0; head < len(wave); head++ {
		v := int(wave[head])
		dv1 := row[v] + 1
		if dv1 > depth {
			break
		}
		m := out[v]
		for m != 0 {
			u := bits.TrailingZeros64(m)
			m &= m - 1
			if aff&(1<<uint(u)) != 0 || row[u] != dv1 {
				continue
			}
			// u loses v as a shortest predecessor; it stays exact only
			// if an unaffected predecessor at the same level remains.
			alt := false
			pm := in[u] &^ aff
			for pm != 0 {
				p := bits.TrailingZeros64(pm)
				pm &= pm - 1
				if row[p] == dv1-1 {
					alt = true
					break
				}
			}
			if !alt {
				aff |= 1 << uint(u)
				count++
				if count > limit {
					return aff, false
				}
				wave = append(wave, int32(u))
			}
		}
	}
	return aff, true
}

// relevelScalar is the scalar phase 2 that repairRemoveFast's
// level-mask one replaced, kept as its oracle: it re-levels the
// affected set aff of row, a source's pre-removal row, in place
// against g (the link already removed), upward from db, the old
// distance of the removed link's head, testing predecessors one row
// read at a time.
func relevelScalar(g *Graph, row []int16, db int16, aff uint64) {
	n := g.n
	in := g.in
	rem := aff
	for d := db + 1; rem != 0 && int(d) <= n; d++ {
		var newly uint64
		rm := rem
		for rm != 0 {
			u := bits.TrailingZeros64(rm)
			rm &= rm - 1
			pm := in[u] &^ rem
			for pm != 0 {
				p := bits.TrailingZeros64(pm)
				pm &= pm - 1
				if row[p] == d-1 {
					newly |= 1 << uint(u)
					break
				}
			}
		}
		if newly == 0 {
			// Stagnation: when no remaining vertex has any reachable
			// outside predecessor, the rest are unreachable.
			anyExternal := false
			for rm := rem; rm != 0 && !anyExternal; rm &= rm - 1 {
				u := bits.TrailingZeros64(rm)
				for pm := in[u] &^ rem; pm != 0; pm &= pm - 1 {
					if row[bits.TrailingZeros64(pm)] >= 0 {
						anyExternal = true
						break
					}
				}
			}
			if !anyExternal {
				break
			}
			continue
		}
		for nm := newly; nm != 0; nm &= nm - 1 {
			row[bits.TrailingZeros64(nm)] = d
		}
		rem &^= newly
	}
	for ; rem != 0; rem &= rem - 1 {
		row[bits.TrailingZeros64(rem)] = -1
	}
}

// The level-mask walks must agree with their scalar oracles on
// single-word graphs up to 64 nodes, sparse ones with unreachable
// vertices included. affectedFast must give up exactly when the
// oracle does and return the same set when it does not; a walk that
// gives up has marked a whole level, so its set must lie inside the
// oracle's complete set and exceed the limit. repairRemoveFast must
// re-level every dirty source of a real removal to the oracle's row
// from the complete affected set, however large, and every level-mask
// word must stay exact (CheckConsistency) through the removals, the
// additions that refill the graph, and transactions of several
// removals, which recompute by BFS, committed or rolled back.
func TestEvalLevelWalksMatchScalar(t *testing.T) {
	for _, n := range []int{2, 7, 20, 48, 63, 64} {
		rng := rand.New(rand.NewSource(int64(n) * 13))
		limits := []int{1, 3, maxAffectedRepair, n}
		var overflowed, releveled, lost int
		for trial := 0; trial < 6; trial++ {
			var g *Graph
			if trial%2 == 0 {
				g = randomConnected(n, 3/float64(n), rng)
			} else {
				// No ring: some vertices have no in-link, or sit behind
				// links a removal cuts.
				g = New(n)
				for g.NumLinks() == 0 {
					for i := 0; i < 2*n; i++ {
						g.Add(rng.Intn(n), rng.Intn(n))
					}
				}
			}
			e := NewEval(g, nil)
			for step := 0; step < 40 && g.NumLinks() > 0; step++ {
				l := g.LinkAt(rng.Intn(g.NumLinks()))
				a, b := l.A, l.B
				for s := 0; s < n; s++ {
					db := e.dist[s*n+b]
					if db < 0 {
						continue
					}
					for _, depth := range []int16{db - 1, db, db + 1, db + 2, math.MaxInt16} {
						full, _ := affectedScalar(e, s, b, n, depth)
						for _, limit := range limits {
							got, ok := e.affectedFast(s, b, limit, depth)
							want, wantOK := affectedScalar(e, s, b, limit, depth)
							switch {
							case ok != wantOK:
								t.Fatalf("n=%d trial %d step %d: walk from %d at %d (limit %d, depth %d) ok %v, scalar %v",
									n, trial, step, s, b, limit, depth, ok, wantOK)
							case ok && got != want:
								t.Fatalf("n=%d trial %d step %d: walk from %d at %d (limit %d, depth %d) = %#x, scalar %#x",
									n, trial, step, s, b, limit, depth, got, want)
							case !ok && (got&^full != 0 || bits.OnesCount64(got) <= limit):
								t.Fatalf("n=%d trial %d step %d: overflowed walk from %d at %d (limit %d, depth %d) = %#x, complete set %#x",
									n, trial, step, s, b, limit, depth, got, full)
							case !ok:
								overflowed++
							}
						}
					}
				}
				// Remove the link and re-level each dirty source from its
				// complete affected set, as the flush does for small ones.
				dirty := e.removeDirtyFast(a, b)
				var affs [MaxFastNodes]uint64
				for m := dirty; m != 0; m &= m - 1 {
					s := bits.TrailingZeros64(m)
					affs[s], _ = e.affectedFast(s, b, n, math.MaxInt16)
				}
				e.Remove(a, b)
				for m := dirty; m != 0; m &= m - 1 {
					s := bits.TrailingZeros64(m)
					want := slices.Clone(e.dist[s*n : (s+1)*n])
					relevelScalar(g, want, want[b], affs[s])
					e.repairRemoveFast(s, b, affs[s])
					if got := e.dist[s*n : (s+1)*n]; !slices.Equal(got, want) {
						t.Fatalf("n=%d trial %d step %d: re-leveling source %d after removing %d->%d gave %v, scalar %v",
							n, trial, step, s, a, b, got, want)
					}
					for m := affs[s]; m != 0; m &= m - 1 {
						if want[bits.TrailingZeros64(m)] < 0 {
							lost++
							break
						}
					}
					releveled++
				}
				e.pendMask = 0
				if err := e.CheckConsistency(); err != nil {
					t.Fatalf("n=%d trial %d step %d: after re-leveling: %v", n, trial, step, err)
				}
				// Refill, then run a transaction of two removals.
				for i := 0; i < 2; i++ {
					e.Add(rng.Intn(n), rng.Intn(n))
				}
				e.Begin()
				for i := 0; i < 2 && g.NumLinks() > 0; i++ {
					l := g.LinkAt(rng.Intn(g.NumLinks()))
					e.Remove(l.A, l.B)
				}
				e.Total()
				if rng.Intn(2) == 0 {
					e.Commit()
				} else {
					e.Rollback()
				}
				if err := e.CheckConsistency(); err != nil {
					t.Fatalf("n=%d trial %d step %d: after a transaction: %v", n, trial, step, err)
				}
			}
		}
		if overflowed == 0 || releveled == 0 || lost == 0 {
			t.Errorf("n=%d: %d walks overflowed, %d rows re-leveled, %d of them losing vertices; all must occur",
				n, overflowed, releveled, lost)
		}
	}
}
