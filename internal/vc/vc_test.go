package vc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/route"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
)

// refCDG is the reference CDG, a map of maps with links encoded as
// from*n+to. Its check adds the path, runs a three-colour DFS over the
// whole graph and removes the path again. It is the oracle for
// cdg.wouldStayAcyclic and cdg.acyclic.
type refCDG struct {
	n    int
	succ map[int]map[int]int // link -> link -> refcount
}

func newRefCDG(n int) *refCDG { return &refCDG{n: n, succ: make(map[int]map[int]int)} }

func (g *refCDG) pathEdges(p route.Path) [][2]int {
	var out [][2]int
	for i := 0; i+2 < len(p); i++ {
		out = append(out, [2]int{p[i]*g.n + p[i+1], p[i+1]*g.n + p[i+2]})
	}
	return out
}

func (g *refCDG) add(p route.Path) {
	for _, e := range g.pathEdges(p) {
		m := g.succ[e[0]]
		if m == nil {
			m = make(map[int]int)
			g.succ[e[0]] = m
		}
		m[e[1]]++
	}
}

func (g *refCDG) remove(p route.Path) {
	for _, e := range g.pathEdges(p) {
		if m := g.succ[e[0]]; m != nil {
			m[e[1]]--
			if m[e[1]] <= 0 {
				delete(m, e[1])
			}
			if len(m) == 0 {
				delete(g.succ, e[0])
			}
		}
	}
}

func (g *refCDG) acyclic() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(g.succ))
	type frame struct {
		node int
		iter []int
	}
	keys := func(m map[int]int) []int {
		out := make([]int, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		return out
	}
	for start := range g.succ {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start, iter: keys(g.succ[start])}}
		color[start] = gray
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if len(top.iter) == 0 {
				color[top.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			next := top.iter[len(top.iter)-1]
			top.iter = top.iter[:len(top.iter)-1]
			switch color[next] {
			case gray:
				return false
			case white:
				color[next] = gray
				stack = append(stack, frame{node: next, iter: keys(g.succ[next])})
			}
		}
	}
	return true
}

func (g *refCDG) wouldStayAcyclic(p route.Path) bool {
	g.add(p)
	ok := g.acyclic()
	g.remove(p)
	return ok
}

// denseCDG returns an empty cdg over every directed link of an n-router
// network, numbering link (a, b) as a*n+b, and the function that
// rewrites a path as those IDs.
func denseCDG(n int) (*cdg, func(route.Path) []int32) {
	g := newCDG(n*n, newSearch(n*n))
	return g, func(p route.Path) []int32 {
		ids := make([]int32, len(p)-1)
		for i := range ids {
			ids[i] = int32(p[i]*n + p[i+1])
		}
		return ids
	}
}

// edgeCount counts the distinct edges of a cdg.
func edgeCount(g *cdg) int {
	n := 0
	for _, out := range g.succ {
		n += len(out)
	}
	return n
}

func TestCDGCycleDetection(t *testing.T) {
	g, ids := denseCDG(4)
	// Paths around a bidirectional ring 0-1-2-3 create a CDG cycle when
	// all four "turns" exist: (0,1)->(1,2)->(2,3)->(3,0)->(0,1).
	g.add(ids(route.Path{0, 1, 2}))
	g.add(ids(route.Path{1, 2, 3}))
	g.add(ids(route.Path{2, 3, 0}))
	if !g.acyclic() {
		t.Fatal("three turns cannot close the cycle")
	}
	if g.wouldStayAcyclic(ids(route.Path{3, 0, 1})) {
		t.Fatal("the fourth turn must be refused")
	}
	if !g.wouldStayAcyclic(ids(route.Path{3, 0})) || !g.wouldStayAcyclic(ids(route.Path{1, 2, 3})) {
		t.Fatal("a one-hop path or a path already in the graph closes no cycle")
	}
	g.add(ids(route.Path{3, 0, 1}))
	if g.acyclic() {
		t.Fatal("four turns around a ring must form a CDG cycle")
	}
	g.remove(ids(route.Path{3, 0, 1}))
	if !g.acyclic() {
		t.Fatal("removing the closing path must restore acyclicity")
	}
	// A path that revisits a link closes a cycle with its own edges.
	h, hids := denseCDG(3)
	if h.wouldStayAcyclic(hids(route.Path{0, 1, 0, 1, 2})) {
		t.Fatal("a path repeating link (0,1) must be refused")
	}
}

func TestCDGRefcounting(t *testing.T) {
	g, ids := denseCDG(4)
	p := ids(route.Path{0, 1, 2})
	g.add(p)
	g.add(p)
	g.remove(p)
	// One reference remains: edge still present.
	if edgeCount(g) != 1 {
		t.Fatalf("%d edges after one of two removes, want 1", edgeCount(g))
	}
	g.remove(p)
	if edgeCount(g) != 0 {
		t.Fatal("edges must vanish when refcount reaches zero")
	}
}

// checkAgainstOracle layers r's flows in a random order, then makes
// random moves between layers, asking the dense check and the reference
// check about every candidate path; they must always agree. A final
// single layer holding every flow compares the whole-graph checks on a
// graph that may have cycles. It returns how many candidates were
// refused.
func checkAgainstOracle(t *testing.T, name string, r *route.Routing, seed int64) int {
	t.Helper()
	flows, links := numberFlows(r)
	dfs := newSearch(links)
	type layer struct {
		g   *cdg
		ref *refCDG
	}
	refused := 0
	agree := func(l layer, f flow) bool {
		got, want := l.g.wouldStayAcyclic(f.links), l.ref.wouldStayAcyclic(r.Table[f.s][f.d])
		if got != want {
			t.Fatalf("%s: flow (%d,%d): local check %v, whole-graph check %v", name, f.s, f.d, got, want)
		}
		if !got {
			refused++
		}
		return got
	}
	rng := rand.New(rand.NewSource(seed))
	var layers []layer
	layerOf := make([]int, len(flows))
	pending := rng.Perm(len(flows))
	for len(pending) > 0 {
		l := layer{newCDG(links, dfs), newRefCDG(r.N)}
		var deferred []int
		for _, fi := range pending {
			f := flows[fi]
			if agree(l, f) {
				l.g.add(f.links)
				l.ref.add(r.Table[f.s][f.d])
				layerOf[fi] = len(layers)
			} else {
				deferred = append(deferred, fi)
			}
		}
		if len(deferred) == len(pending) {
			t.Fatalf("%s: no progress", name)
		}
		layers = append(layers, l)
		pending = deferred
	}
	for i := 0; i < len(flows); i++ {
		fi, to := rng.Intn(len(flows)), rng.Intn(len(layers))
		f, from := flows[fi], layerOf[fi]
		if to == from || !agree(layers[to], f) {
			continue
		}
		layers[from].g.remove(f.links)
		layers[from].ref.remove(r.Table[f.s][f.d])
		layers[to].g.add(f.links)
		layers[to].ref.add(r.Table[f.s][f.d])
		layerOf[fi] = to
	}
	for v, l := range layers {
		if !l.g.acyclic() || !l.ref.acyclic() {
			t.Fatalf("%s: layer %d has a cycle", name, v)
		}
	}
	all := layer{newCDG(links, dfs), newRefCDG(r.N)}
	for _, f := range flows {
		all.g.add(f.links)
		all.ref.add(r.Table[f.s][f.d])
	}
	if got, want := all.g.acyclic(), all.ref.acyclic(); got != want {
		t.Fatalf("%s: one-layer whole-graph check %v, reference %v", name, got, want)
	}
	return refused
}

// TestLocalCheckMatchesFullCheck pins the local cycle check to the
// reference add / whole-graph DFS / remove on rings, meshes with random
// shortest-path selection and a synthesized topology under MCLB.
func TestLocalCheckMatchesFullCheck(t *testing.T) {
	ring := func(n int, bidir bool) *topo.Topology {
		tp := topo.New("ring", layout.NewGrid(1, n), layout.Large)
		for i := 0; i < n; i++ {
			tp.AddLink(i, (i+1)%n)
			if bidir {
				tp.AddLink((i+1)%n, i)
			}
		}
		return tp
	}
	random := func(tp *topo.Topology, seed int64) *route.Routing {
		ps, err := route.AllShortestPaths(tp, 0)
		if err != nil {
			t.Fatal(err)
		}
		return route.RandomSelection(tp.Name, ps, seed)
	}
	res, err := synth.Generate(synth.Config{Grid: layout.Grid4x5, Class: layout.Medium,
		Objective: synth.LatOp, Seed: 1, Iterations: 8000, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	mclb, err := route.MCLB(res.Topology, route.MCLBOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for seed := int64(1); seed <= 3; seed++ {
		refused += checkAgainstOracle(t, "ring-6", random(ring(6, false), seed), seed)
		refused += checkAgainstOracle(t, "bidir-ring-8", random(ring(8, true), seed), seed)
		refused += checkAgainstOracle(t, "mesh-4x5", random(expert.Mesh(layout.Grid4x5), seed), seed)
		refused += checkAgainstOracle(t, "ns-mclb", mclb, seed)
	}
	refused += checkAgainstOracle(t, "mesh-8x8", random(expert.Mesh(layout.NewGrid(8, 8)), 1), 1)
	if refused == 0 {
		t.Fatal("no candidate was refused: the routings exercise no cycles")
	}
}

func TestAssignRing(t *testing.T) {
	// Unidirectional ring: all-to-all shortest paths wrap around and the
	// single-layer CDG is cyclic, so at least 2 VCs are required.
	g := layout.NewGrid(1, 6)
	tp := topo.New("ring", g, layout.Large)
	for i := 0; i < 6; i++ {
		tp.AddLink(i, (i+1)%6)
	}
	ps, err := route.AllShortestPaths(tp, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := route.RandomSelection("ring", ps, 1)
	a, err := Assign(r, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumVCs < 2 {
		t.Errorf("ring requires >= 2 VCs, got %d", a.NumVCs)
	}
	if err := a.Verify(r); err != nil {
		t.Fatal(err)
	}
}

func TestAssignMeshXY(t *testing.T) {
	// A mesh with XY-like (monotone) routing should need very few VCs.
	m := expert.Mesh(layout.Grid4x5)
	r, err := route.NDBT(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assign(r, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(r); err != nil {
		t.Fatal(err)
	}
	if a.NumVCs > 3 {
		t.Errorf("mesh NDBT needs %d VCs, expected <= 3", a.NumVCs)
	}
}

func TestAssignKiteAndNetSmith(t *testing.T) {
	// The paper: 4 VCs suffice for all 20-router configurations.
	cases := []*topo.Topology{}
	kite, err := expert.Get(expert.NameKiteSmall, layout.Grid4x5)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, kite)
	res, err := synth.Generate(synth.Config{Grid: layout.Grid4x5, Class: layout.Medium,
		Objective: synth.LatOp, Seed: 1, Iterations: 8000, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, res.Topology)
	for _, tp := range cases {
		r, err := route.MCLB(tp, route.MCLBOptions{Seed: 2, Restarts: 4})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Assign(r, Options{Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		if err := a.Verify(r); err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		if a.NumVCs > 4 {
			t.Errorf("%s: %d VCs needed, paper reports <= 4 for 20-router configs", tp.Name, a.NumVCs)
		}
	}
}

func TestMaxVCsEnforced(t *testing.T) {
	g := layout.NewGrid(1, 6)
	tp := topo.New("ring", g, layout.Large)
	for i := 0; i < 6; i++ {
		tp.AddLink(i, (i+1)%6)
	}
	ps, _ := route.AllShortestPaths(tp, 0)
	r := route.RandomSelection("ring", ps, 1)
	if _, err := Assign(r, Options{Seed: 1, MaxVCs: 1}); err == nil {
		t.Error("MaxVCs=1 must fail on a unidirectional ring")
	}
}

func TestOccupancyBalanced(t *testing.T) {
	m := expert.Mesh(layout.Grid4x5)
	ps, _ := route.AllShortestPaths(m, 0)
	r := route.RandomSelection("mesh", ps, 11)
	a, err := Assign(r, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	occ := a.Occupancy(r)
	total := 0
	for _, w := range occ {
		total += w
	}
	sumHops := 0
	for s := 0; s < 20; s++ {
		for d := 0; d < 20; d++ {
			if s != d {
				sumHops += r.Table[s][d].Hops()
			}
		}
	}
	if total != sumHops {
		t.Errorf("occupancy sums to %d, want %d", total, sumHops)
	}
	if a.NumVCs >= 2 {
		// Balancing should keep the heaviest layer under 85% of total.
		max := 0
		for _, w := range occ {
			if w > max {
				max = w
			}
		}
		if float64(max) > 0.85*float64(total) {
			t.Errorf("unbalanced layers: %v", occ)
		}
	}
}

// layeringDigest is the SHA-256 of an assignment's (NumVCs, LayerOf).
func layeringDigest(t *testing.T, a *Assignment) string {
	t.Helper()
	b, err := json.Marshal([]any{a.NumVCs, a.LayerOf})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestAssignGoldenLayering pins the layers Assign returns on the
// benchmark's 20-router setups: the 4x5 mesh under NDBT and the
// NS-LatOp-medium topology under MCLB at the matrix seeds 11-14 (the
// synthesis, routing and VC seeds all equal the matrix seed, as in
// exp.MatrixSetups), plus Kite-Medium under MCLB. Every matrix cell's
// store key covers the layers (sim.Setup.Fingerprint), so any change to
// these digests silently re-keys cached results.
func TestAssignGoldenLayering(t *testing.T) {
	golden := map[string]string{
		"mesh-ndbt-11":       "d46d11c792da67a63793a3116179d60048be47e0b2e1f55cd47ea299da9ce473",
		"mesh-ndbt-12":       "045b4a4cf9b00e9546342c010dbda2520d89e8b449247cd50b335d4503ad61e7",
		"mesh-ndbt-13":       "39438380ae49f7f943f9773ff97ffc4b8892415f45f459cc8df7cf20ed0474d5",
		"mesh-ndbt-14":       "a4b5cd7691371a0a6d6aa79b98ee7c3762e114796c98634a8a801256f1f2f615",
		"ns-latop-mclb-11":   "e5d3fd4bb1d5714898b7891a625472e01f41988ccb9995c03fb2a52c83815823",
		"ns-latop-mclb-12":   "19062d2a7228cbe7fcec21dc1167c18e438d3dd29be0060b33e1a739e8290e89",
		"ns-latop-mclb-13":   "938b20ea39a11d01a66234cb30c17aab2a66b61ec6ad9a62a4034837f379ea81",
		"ns-latop-mclb-14":   "b219e275d112d0a619933eb04e78a2f38dae95b3247be80685006460f94f1424",
		"kite-medium-mclb-1": "56a48caf4c1d23e0ffcdd588ae155ffeb3e551024941d6122c1752c8968062e1",
	}
	check := func(name string, r *route.Routing, seed int64) {
		t.Helper()
		a, err := Assign(r, Options{Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := layeringDigest(t, a); got != golden[name] {
			t.Errorf("%s: layering digest %s, want %s", name, got, golden[name])
		}
	}
	mesh := expert.Mesh(layout.Grid4x5)
	for seed := int64(11); seed <= 14; seed++ {
		r, err := route.NDBT(mesh, seed)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("mesh-ndbt-%d", seed), r, seed)
		res, err := synth.Generate(synth.MatrixNSConfig(layout.Grid4x5, layout.Medium, 0, 0, seed, 20000, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if r, err = route.MCLB(res.Topology, route.MCLBOptions{Seed: seed}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("ns-latop-mclb-%d", seed), r, seed)
	}
	kite, err := expert.Get(expert.NameKiteMedium, layout.Grid4x5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.MCLB(kite, route.MCLBOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("kite-medium-mclb-1", r, 1)
}

func TestVerifyCatchesBadAssignment(t *testing.T) {
	g := layout.NewGrid(1, 4)
	tp := topo.New("ring", g, layout.Large)
	for i := 0; i < 4; i++ {
		tp.AddLink(i, (i+1)%4)
	}
	ps, _ := route.AllShortestPaths(tp, 0)
	r := route.RandomSelection("ring", ps, 1)
	// Force everything into one layer: wrap-around flows close the CDG
	// cycle.
	bad := &Assignment{NumVCs: 1, LayerOf: make([][]int, 4)}
	for s := range bad.LayerOf {
		bad.LayerOf[s] = make([]int, 4)
		for d := range bad.LayerOf[s] {
			if s == d {
				bad.LayerOf[s][d] = -1
			}
		}
	}
	if err := bad.Verify(r); err == nil {
		t.Error("Verify must reject a cyclic single-layer assignment")
	}
}
