package route

import (
	"reflect"
	"runtime"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/topo"
)

func mesh4x5() *topo.Topology { return expert.Mesh(layout.Grid4x5) }

func smallRing() *topo.Topology {
	g := layout.NewGrid(1, 4)
	t := topo.New("ring", g, layout.Large)
	for i := 0; i < 4; i++ {
		t.AddLink(i, (i+1)%4)
		t.AddLink((i+1)%4, i)
	}
	return t
}

func TestAllShortestPathsMesh(t *testing.T) {
	m := mesh4x5()
	ps, err := AllShortestPaths(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist := m.ShortestPaths()
	for s := 0; s < 20; s++ {
		for d := 0; d < 20; d++ {
			if s == d {
				if ps.Paths[s][d] != nil {
					t.Fatal("diagonal must be empty")
				}
				continue
			}
			if len(ps.Paths[s][d]) == 0 {
				t.Fatalf("no path for (%d,%d)", s, d)
			}
			for _, p := range ps.Paths[s][d] {
				if p.Hops() != dist[s][d] {
					t.Fatalf("path %v is not shortest (%d vs %d)", p, p.Hops(), dist[s][d])
				}
				if p[0] != s || p[len(p)-1] != d {
					t.Fatalf("endpoints wrong: %v", p)
				}
				for _, l := range p.Links() {
					if !m.Has(l[0], l[1]) {
						t.Fatalf("path uses missing link %v", l)
					}
				}
			}
		}
	}
	// Mesh path diversity: (0,0) -> (1,1): 2 shortest paths.
	if got := len(ps.Paths[0][6]); got != 2 {
		t.Errorf("mesh (0->6) has %d shortest paths, want 2", got)
	}
	// Straight-line flows have exactly one.
	if got := len(ps.Paths[0][4]); got != 1 {
		t.Errorf("mesh (0->4) has %d shortest paths, want 1", got)
	}
}

func TestAllShortestPathsCap(t *testing.T) {
	m := mesh4x5()
	ps, err := AllShortestPaths(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 20; s++ {
		for d := 0; d < 20; d++ {
			if s != d && len(ps.Paths[s][d]) > 3 {
				t.Fatalf("cap violated: %d paths", len(ps.Paths[s][d]))
			}
		}
	}
}

func TestAllShortestPathsDisconnected(t *testing.T) {
	g := layout.NewGrid(1, 3)
	tp := topo.New("line", g, layout.Small)
	tp.AddLink(0, 1)
	tp.AddLink(1, 2) // no way back: not strongly connected
	if _, err := AllShortestPaths(tp, 0); err == nil {
		t.Error("disconnected topology must error")
	}
}

func TestRandomSelectionValidates(t *testing.T) {
	m := mesh4x5()
	ps, _ := AllShortestPaths(m, 0)
	r := RandomSelection("rand", ps, 1)
	if err := r.Validate(m); err != nil {
		t.Fatal(err)
	}
	if r.AverageHops() != m.AverageHops() {
		t.Errorf("shortest-path routing avg hops %v != topology %v", r.AverageHops(), m.AverageHops())
	}
}

func TestNDBTMesh(t *testing.T) {
	m := mesh4x5()
	r, err := NDBT(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(m); err != nil {
		t.Fatal(err)
	}
	// Every selected path must satisfy the no-double-back rule on a mesh
	// (where XY-monotone shortest paths always exist).
	for s := 0; s < 20; s++ {
		for d := 0; d < 20; d++ {
			if s == d {
				continue
			}
			if !noDoubleBackX(m, r.Table[s][d]) {
				t.Fatalf("NDBT path for (%d,%d) doubles back: %v", s, d, r.Table[s][d])
			}
		}
	}
}

func TestNoDoubleBackX(t *testing.T) {
	m := mesh4x5()
	// Path going right then left: 0 -> 1 -> 0 is not shortest but tests
	// the predicate directly.
	if noDoubleBackX(m, Path{0, 1, 0}) {
		t.Error("right-then-left must be rejected")
	}
	if !noDoubleBackX(m, Path{0, 1, 2}) {
		t.Error("monotone right must be accepted")
	}
	// Vertical moves don't set direction: 0 -> 5 -> 6 -> 11 ok.
	if !noDoubleBackX(m, Path{0, 5, 6, 11}) {
		t.Error("vertical + right must be accepted")
	}
}

func TestMCLBRingOptimal(t *testing.T) {
	// Bidirectional 4-ring: every flow has a unique shortest path except
	// opposite pairs (2 hops each way). Optimal max load is 2.
	r4 := smallRing()
	routing, err := MCLB(r4, MCLBOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.Validate(r4); err != nil {
		t.Fatal(err)
	}
	exact, exactLoad, err := MCLBExact(r4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.Validate(r4); err != nil {
		t.Fatal(err)
	}
	if got := routing.MaxChannelLoad(); got != exactLoad {
		t.Errorf("local search max load %d != exact %d", got, exactLoad)
	}
}

func TestMCLBMatchesExactOn2x3Mesh(t *testing.T) {
	g := layout.NewGrid(2, 3)
	m := expert.Mesh(g)
	heur, err := MCLB(m, MCLBOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact, exactLoad, err := MCLBExact(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.Validate(m); err != nil {
		t.Fatal(err)
	}
	if heur.MaxChannelLoad() != exactLoad {
		t.Errorf("heuristic MCLB %d != exact %d", heur.MaxChannelLoad(), exactLoad)
	}
	lb, err := MCLBLowerBoundLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if float64(exactLoad) < lb-1e-6 {
		t.Errorf("exact %d below LP bound %v", exactLoad, lb)
	}
}

func TestMCLBBeatsRandomOnMesh(t *testing.T) {
	m := mesh4x5()
	mclb, err := MCLB(m, MCLBOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := mclb.Validate(m); err != nil {
		t.Fatal(err)
	}
	ps, _ := AllShortestPaths(m, 0)
	randomSel := RandomSelection("rand", ps, 5)
	if mclb.MaxChannelLoad() > randomSel.MaxChannelLoad() {
		t.Errorf("MCLB max load %d worse than random %d", mclb.MaxChannelLoad(), randomSel.MaxChannelLoad())
	}
	// MCLB preserves shortest-path hop counts.
	if mclb.AverageHops() != m.AverageHops() {
		t.Errorf("MCLB avg hops %v != topology %v", mclb.AverageHops(), m.AverageHops())
	}
}

func TestMCLBOnKite(t *testing.T) {
	kite, err := expert.Get(expert.NameKiteSmall, layout.Grid4x5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := MCLB(kite, MCLBOptions{Seed: 9, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(kite); err != nil {
		t.Fatal(err)
	}
	ndbt, err := NDBT(kite, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: MCLB achieves no worse max channel load than
	// the NDBT heuristic on the same topology (Fig. 7).
	if r.MaxChannelLoad() > ndbt.MaxChannelLoad() {
		t.Errorf("MCLB %d worse than NDBT %d on Kite-Small", r.MaxChannelLoad(), ndbt.MaxChannelLoad())
	}
}

func TestChannelLoadsSumToLinkOccupancy(t *testing.T) {
	// Sum of channel loads equals sum of hops over all flows (each hop
	// occupies one link).
	m := mesh4x5()
	r, _ := MCLB(m, MCLBOptions{Seed: 2, Restarts: 2, Sweeps: 5})
	loads := r.ChannelLoads()
	sumLoads := 0
	for _, v := range loads {
		sumLoads += v
	}
	sumHops := 0
	for s := 0; s < 20; s++ {
		for d := 0; d < 20; d++ {
			if s != d {
				sumHops += r.Table[s][d].Hops()
			}
		}
	}
	if sumLoads != sumHops {
		t.Errorf("channel load sum %d != hop sum %d", sumLoads, sumHops)
	}
}

func TestPathSetFilterFallback(t *testing.T) {
	m := mesh4x5()
	ps, _ := AllShortestPaths(m, 0)
	// Reject everything: every flow must fall back.
	filtered, fallbacks := ps.Filter(func(Path) bool { return false })
	if fallbacks != 20*19 {
		t.Errorf("fallbacks = %d, want %d", fallbacks, 20*19)
	}
	for s := 0; s < 20; s++ {
		for d := 0; d < 20; d++ {
			if s != d && len(filtered.Paths[s][d]) == 0 {
				t.Fatal("fallback left a flow unroutable")
			}
		}
	}
}

// serialWalk is the reference enumeration: one recursive walk of the
// shortest-path DAG per flow, every path its own slice.
func serialWalk(t *topo.Topology, maxPerFlow int) [][][]Path {
	n, dist := t.N(), t.ShortestPaths()
	out := make([][][]Path, n)
	for s := range out {
		out[s] = make([][]Path, n)
		for d := range out[s] {
			if s == d {
				continue
			}
			cur := Path{s}
			var walk func(u int)
			walk = func(u int) {
				if len(out[s][d]) >= maxPerFlow {
					return
				}
				if u == d {
					out[s][d] = append(out[s][d], append(Path(nil), cur...))
					return
				}
				for _, v := range t.Out(u) {
					if dist[s][u]+1+dist[v][d] == dist[s][d] {
						cur = append(cur, v)
						walk(v)
						cur = cur[:len(cur)-1]
					}
				}
			}
			walk(s)
		}
	}
	return out
}

// atEachGOMAXPROCS runs fn at GOMAXPROCS 1, 2, 3 and 8.
func atEachGOMAXPROCS(fn func(procs int)) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

// TestPathSetsMatchSerialWalk pins the parallel per-source enumeration
// to the reference walk, candidate order and cap included, and Filter to
// a serial filter, at several GOMAXPROCS.
func TestPathSetsMatchSerialWalk(t *testing.T) {
	kite, err := expert.Get(expert.NameKiteMedium, layout.Grid4x5)
	if err != nil {
		t.Fatal(err)
	}
	topos := []*topo.Topology{mesh4x5(), smallRing(), kite, expert.Mesh(layout.Grid8x6)}
	atEachGOMAXPROCS(func(procs int) {
		for _, tp := range topos {
			for _, maxPerFlow := range []int{1, 3, MaxPathsPerFlow} {
				ps, err := AllShortestPaths(tp, maxPerFlow)
				if err != nil {
					t.Fatal(err)
				}
				want := serialWalk(tp, maxPerFlow)
				if !reflect.DeepEqual(ps.Paths, want) {
					t.Fatalf("%s, cap %d, GOMAXPROCS %d: candidates differ from the serial walk", tp.Name, maxPerFlow, procs)
				}
				keep := func(p Path) bool { return noDoubleBackX(tp, p) && p[1]%3 != 0 }
				filtered, fallbacks := ps.Filter(keep)
				wantFallbacks := 0
				for s := range want {
					for d, cands := range want[s] {
						if s == d {
							continue
						}
						var kept []Path
						for _, p := range cands {
							if keep(p) {
								kept = append(kept, p)
							}
						}
						if kept == nil {
							kept = cands
							wantFallbacks++
						}
						want[s][d] = kept
					}
				}
				if fallbacks != wantFallbacks || !reflect.DeepEqual(filtered.Paths, want) {
					t.Fatalf("%s, cap %d, GOMAXPROCS %d: filtered set differs from a serial filter", tp.Name, maxPerFlow, procs)
				}
			}
		}
	})
}

// TestMCLBSameAtAnyGOMAXPROCS checks that parallel restarts pick the
// routing a single worker picks, which runs the restarts in order.
func TestMCLBSameAtAnyGOMAXPROCS(t *testing.T) {
	kite, err := expert.Get(expert.NameKiteMedium, layout.Grid4x5)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := AllShortestPaths(kite, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]*Routing{}
	atEachGOMAXPROCS(func(procs int) {
		for seed := int64(1); seed <= 3; seed++ {
			r := MCLBOnPaths(ps, MCLBOptions{Seed: seed, Restarts: 11, Sweeps: 4})
			if procs == 1 {
				want[seed] = r
			} else if !reflect.DeepEqual(r, want[seed]) {
				t.Fatalf("seed %d, GOMAXPROCS %d: routing differs from GOMAXPROCS 1", seed, procs)
			}
		}
	})
}

// TestRoutingOwnsItsPaths overwrites every candidate of the path set a
// routing was selected from: the routing must not change, because
// RandomSelection and MCLBOnPaths copy the paths they choose.
func TestRoutingOwnsItsPaths(t *testing.T) {
	kite, err := expert.Get(expert.NameKiteMedium, layout.Grid4x5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		choose func(*PathSet) *Routing
	}{
		{"RandomSelection", func(ps *PathSet) *Routing { return RandomSelection("random", ps, 5) }},
		{"MCLBOnPaths", func(ps *PathSet) *Routing { return MCLBOnPaths(ps, MCLBOptions{Seed: 5, Restarts: 3, Sweeps: 5}) }},
	} {
		ps, err := AllShortestPaths(kite, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := c.choose(ps)
		want := make([][]Path, r.N)
		for s, row := range r.Table {
			for _, p := range row {
				want[s] = append(want[s], append(Path(nil), p...))
			}
		}
		for _, row := range ps.Paths {
			for _, cands := range row {
				for _, p := range cands {
					for i := range p {
						p[i] = -1
					}
				}
			}
		}
		if !reflect.DeepEqual(r.Table, want) {
			t.Errorf("%s: overwriting the candidates changed the routing", c.name)
		}
		if err := r.Validate(kite); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
