// Package route implements routing for NetSmith topologies: enumeration
// of all shortest paths per flow (the static input to the MCLB
// formulation of the paper's Table III), the expert-topology heuristic
// "no double-back turns" (NDBT) routing, and MCLB — minimum maximum
// channel load path selection — solved by multi-restart local search.
// The exact MIP solve of the formulation and its LP lower bound are test
// oracles that certify the search on small instances.
package route

import (
	"fmt"
	"math/rand"

	"netsmith/internal/par"
	"netsmith/internal/topo"
)

// Path is a router sequence from source to destination (inclusive).
type Path []int

// Hops returns the number of links traversed.
func (p Path) Hops() int { return len(p) - 1 }

// Links yields the directed links along the path.
func (p Path) Links() [][2]int {
	out := make([][2]int, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		out = append(out, [2]int{p[i], p[i+1]})
	}
	return out
}

// PathSet holds, for every ordered flow (s, d), the candidate shortest
// paths P[s][d] (the set P of the MCLB formulation). Each source's
// candidates share one router-ID arena and one []Path arena; a Routing
// copies the paths it selects, so it never keeps these alive.
type PathSet struct {
	N     int
	Paths [][][]Path // [src][dst] -> candidate shortest paths
}

// MaxPathsPerFlow caps enumeration per flow; topologies with massive
// path diversity keep a deterministic sample.
const MaxPathsPerFlow = 24

// AllShortestPaths enumerates all shortest paths for every ordered pair
// by building each source's BFS DAG and walking it depth-first. Flows
// with more than maxPerFlow shortest paths keep a deterministic subset
// (maxPerFlow <= 0 selects MaxPathsPerFlow): the first ones in that
// walk's order. Sources are enumerated in parallel; each reads only the
// distance matrix and the topology, so the result does not depend on
// scheduling.
func AllShortestPaths(t *topo.Topology, maxPerFlow int) (*PathSet, error) {
	if maxPerFlow <= 0 {
		maxPerFlow = MaxPathsPerFlow
	}
	n := t.N()
	if !t.IsConnected() {
		return nil, fmt.Errorf("route: topology %s is not strongly connected", t.Name)
	}
	// ShortestPaths refreshes the topology's adjacency lists, so the
	// workers below only read it.
	dist := t.ShortestPaths()
	ps := &PathSet{N: n, Paths: flowRows(n)}
	scratch := make([]*enumerator, par.Workers(n))
	par.For(n, func(w, s int) {
		e := scratch[w]
		if e == nil {
			e = &enumerator{t: t, dist: dist, cap: maxPerFlow}
			scratch[w] = e
		}
		e.source(s, ps.Paths[s])
	})
	return ps, nil
}

// flowRows returns n rows of n flows each, carved from one backing
// slice.
func flowRows(n int) [][][]Path {
	flat := make([][]Path, n*n)
	rows := make([][][]Path, n)
	for s := range rows {
		rows[s] = flat[s*n : (s+1)*n : (s+1)*n]
	}
	return rows
}

// enumerator is one worker's scratch for enumerating a source's
// candidates: every candidate's routers back to back in ids, with
// each candidate's end offset in ends.
type enumerator struct {
	t     *topo.Topology
	dist  [][]int
	cap   int
	ids   []int
	ends  []int
	count []int // candidates per destination
	cur   Path  // the walk's current prefix
	s, d  int
	first int // index in ends of the current flow's first candidate
}

// source fills row with source s's candidates for every destination,
// in one router-ID arena and one []Path arena sized to fit exactly.
func (e *enumerator) source(s int, row [][]Path) {
	n := len(row)
	e.ids, e.ends = e.ids[:0], e.ends[:0]
	e.count = append(e.count[:0], make([]int, n)...)
	e.s = s
	for d := 0; d < n; d++ {
		if d == s {
			continue
		}
		e.d, e.first = d, len(e.ends)
		e.cur = append(e.cur[:0], s)
		e.walk(s)
		e.count[d] = len(e.ends) - e.first
	}
	ids := append([]int(nil), e.ids...)
	paths := make([]Path, len(e.ends))
	start := 0
	for i, end := range e.ends {
		paths[i] = ids[start:end:end]
		start = end
	}
	for d, c := range e.count {
		if c > 0 {
			row[d] = paths[:c:c]
			paths = paths[c:]
		}
	}
}

// walk extends the current prefix, which ends at u, along the shortest-
// path DAG from s to d: a hop u->v is on a shortest path iff
// dist[s][u] + 1 + dist[v][d] == dist[s][d].
func (e *enumerator) walk(u int) {
	if len(e.ends)-e.first >= e.cap {
		return
	}
	if u == e.d {
		e.ids = append(e.ids, e.cur...)
		e.ends = append(e.ends, len(e.ids))
		return
	}
	du, total := e.dist[e.s][u], e.dist[e.s][e.d]
	for _, v := range e.t.Out(u) {
		if du+1+e.dist[v][e.d] == total {
			e.cur = append(e.cur, v)
			e.walk(v)
			e.cur = e.cur[:len(e.cur)-1]
		}
	}
}

// Routing is a single selected path per ordered flow.
type Routing struct {
	Name  string
	N     int
	Table [][]Path // [src][dst]; nil on the diagonal
}

// PathFor returns the selected path for flow (s, d).
func (r *Routing) PathFor(s, d int) Path { return r.Table[s][d] }

// ChannelLoads counts, for every directed link, the number of flows
// routed across it (uniform unit demand per flow, C1 of Table III).
func (r *Routing) ChannelLoads() map[[2]int]int {
	loads := make(map[[2]int]int)
	for s := range r.Table {
		for d := range r.Table[s] {
			if s == d || r.Table[s][d] == nil {
				continue
			}
			for _, l := range r.Table[s][d].Links() {
				loads[l]++
			}
		}
	}
	return loads
}

// MaxChannelLoad returns the maximum channel load (the MCLB objective,
// O1 of Table III).
func (r *Routing) MaxChannelLoad() int {
	max := 0
	for _, v := range r.ChannelLoads() {
		if v > max {
			max = v
		}
	}
	return max
}

// AverageHops returns the mean hop count over all routed flows.
func (r *Routing) AverageHops() float64 {
	total, flows := 0, 0
	for s := range r.Table {
		for d := range r.Table[s] {
			if s == d || r.Table[s][d] == nil {
				continue
			}
			total += r.Table[s][d].Hops()
			flows++
		}
	}
	if flows == 0 {
		return 0
	}
	return float64(total) / float64(flows)
}

// Validate checks that every off-diagonal flow has a path, that paths
// start/end correctly and only use existing links.
func (r *Routing) Validate(t *topo.Topology) error {
	for s := range r.Table {
		for d := range r.Table[s] {
			if s == d {
				continue
			}
			p := r.Table[s][d]
			if p == nil {
				return fmt.Errorf("route: flow (%d,%d) has no path", s, d)
			}
			if p[0] != s || p[len(p)-1] != d {
				return fmt.Errorf("route: flow (%d,%d) path endpoints %v", s, d, p)
			}
			for i := 0; i+1 < len(p); i++ {
				if !t.Has(p[i], p[i+1]) {
					return fmt.Errorf("route: flow (%d,%d) uses missing link %v", s, d, [2]int{p[i], p[i+1]})
				}
			}
		}
	}
	return nil
}

// SurvivorRouting builds a shortest-path routing over the surviving
// subgraph of a degraded topology: routers for which aliveRouter is
// false and directed links for which aliveLink is false are excluded.
// Flows with no surviving path — including any flow whose endpoint is a
// dead router — get a nil table entry, which the simulator reports as an
// unreachable pair; the result therefore deliberately does NOT satisfy
// Validate, which demands total routings.
//
// Paths are deterministic: a per-source BFS scans out-neighbors in
// ascending router order (the topo.Out contract), so the same topology,
// liveness and flow always yield the same path at any GOMAXPROCS. Either
// predicate may be nil, meaning "everything alive".
func SurvivorRouting(name string, t *topo.Topology, aliveRouter func(r int) bool, aliveLink func(a, b int) bool) *Routing {
	n := t.N()
	routerOK := func(r int) bool { return aliveRouter == nil || aliveRouter(r) }
	linkOK := func(a, b int) bool { return aliveLink == nil || aliveLink(a, b) }
	r := &Routing{Name: name, N: n, Table: make([][]Path, n)}
	parent := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		r.Table[s] = make([]Path, n)
		if !routerOK(s) {
			continue
		}
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.Out(u) {
				if parent[v] >= 0 || !routerOK(v) || !linkOK(u, v) {
					continue
				}
				parent[v] = u
				queue = append(queue, v)
			}
		}
		for d := 0; d < n; d++ {
			if d == s || parent[d] < 0 {
				continue
			}
			var rev Path
			for v := d; v != s; v = parent[v] {
				rev = append(rev, v)
			}
			p := make(Path, 0, len(rev)+1)
			p = append(p, s)
			for i := len(rev) - 1; i >= 0; i-- {
				p = append(p, rev[i])
			}
			r.Table[s][d] = p
		}
	}
	return r
}

// RandomSelection picks one path per flow uniformly at random — the
// "random selection of paths amongst the valid choices" used with
// expert-topology routing. The draws run in (src, dst) order.
func RandomSelection(name string, ps *PathSet, seed int64) *Routing {
	rng := rand.New(rand.NewSource(seed))
	choice := make([]int, 0, ps.N*ps.N)
	for s := 0; s < ps.N; s++ {
		for d := 0; d < ps.N; d++ {
			if s != d {
				choice = append(choice, rng.Intn(len(ps.Paths[s][d])))
			}
		}
	}
	return ps.routing(name, choice)
}

// routing returns the Routing that takes candidate choice[f] for the
// f-th flow in (src, dst) order, diagonal skipped. The chosen paths are
// copied into one arena the Routing owns, so it keeps no candidate
// arena alive.
func (ps *PathSet) routing(name string, choice []int) *Routing {
	n := ps.N
	total, f := 0, 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				total += len(ps.Paths[s][d][choice[f]])
				f++
			}
		}
	}
	r := &Routing{Name: name, N: n, Table: make([][]Path, n)}
	table := make([]Path, n*n)
	ids := make([]int, 0, total)
	f = 0
	for s := 0; s < n; s++ {
		r.Table[s] = table[s*n : (s+1)*n : (s+1)*n]
		for d := 0; d < n; d++ {
			if s != d {
				start := len(ids)
				ids = append(ids, ps.Paths[s][d][choice[f]]...)
				r.Table[s][d] = ids[start:len(ids):len(ids)]
				f++
			}
		}
	}
	return r
}

// Filter returns a new PathSet keeping only paths accepted by keep;
// flows whose candidates are all rejected fall back to their full
// candidate list (counted in fallbacks), so the result is always
// routable. Sources are filtered in parallel, so keep must be safe for
// concurrent calls. Each source's kept candidates share one []Path
// arena; a flow that keeps all or none of its candidates shares the
// input's slice instead, and every kept Path shares the input's
// routers.
func (ps *PathSet) Filter(keep func(Path) bool) (*PathSet, int) {
	n := ps.N
	out := &PathSet{N: n, Paths: flowRows(n)}
	fallbacks := make([]int, n)
	scratch := make([]filterScratch, par.Workers(n))
	par.For(n, func(w, s int) {
		f := &scratch[w]
		f.kept, f.ends = f.kept[:0], f.ends[:0]
		for d, cands := range ps.Paths[s] {
			if d != s {
				start := len(f.kept)
				for _, p := range cands {
					if keep(p) {
						f.kept = append(f.kept, p)
					}
				}
				if kept := len(f.kept) - start; kept == 0 || kept == len(cands) {
					if kept == 0 {
						fallbacks[s]++
					}
					out.Paths[s][d] = cands
					f.kept = f.kept[:start]
				}
			}
			f.ends = append(f.ends, len(f.kept))
		}
		arena := append([]Path(nil), f.kept...)
		start := 0
		for d, end := range f.ends {
			if end > start {
				out.Paths[s][d] = arena[start:end:end]
			}
			start = end
		}
	})
	total := 0
	for _, c := range fallbacks {
		total += c
	}
	return out, total
}

// filterScratch is one Filter worker's scratch: a source's kept
// candidates back to back, and each destination's end offset in kept.
type filterScratch struct {
	kept []Path
	ends []int
}
