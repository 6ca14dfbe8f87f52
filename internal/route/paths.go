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

// clone deep-copies the path.
func (p Path) clone() Path { return append(Path(nil), p...) }

// PathSet holds, for every ordered flow (s, d), the candidate shortest
// paths P[s][d] (the set P of the MCLB formulation).
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
// (maxPerFlow <= 0 selects MaxPathsPerFlow).
func AllShortestPaths(t *topo.Topology, maxPerFlow int) (*PathSet, error) {
	if maxPerFlow <= 0 {
		maxPerFlow = MaxPathsPerFlow
	}
	n := t.N()
	if !t.IsConnected() {
		return nil, fmt.Errorf("route: topology %s is not strongly connected", t.Name)
	}
	dist := t.ShortestPaths()
	ps := &PathSet{N: n, Paths: make([][][]Path, n)}
	for s := 0; s < n; s++ {
		ps.Paths[s] = make([][]Path, n)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			ps.Paths[s][d] = enumerate(t, dist, s, d, maxPerFlow)
		}
	}
	return ps, nil
}

// enumerate walks the shortest-path DAG from s to d: a hop u->v is on a
// shortest path iff dist[s][u] + 1 + dist[v][d] == dist[s][d].
func enumerate(t *topo.Topology, dist [][]int, s, d, cap int) []Path {
	total := dist[s][d]
	var out []Path
	cur := Path{s}
	var dfs func(u int)
	dfs = func(u int) {
		if len(out) >= cap {
			return
		}
		if u == d {
			out = append(out, cur.clone())
			return
		}
		du := dist[s][u]
		for _, v := range t.Out(u) {
			if du+1+dist[v][d] == total {
				cur = append(cur, v)
				dfs(v)
				cur = cur[:len(cur)-1]
			}
		}
	}
	dfs(s)
	return out
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
			for _, l := range p.Links() {
				if !t.Has(l[0], l[1]) {
					return fmt.Errorf("route: flow (%d,%d) uses missing link %v", s, d, l)
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
// expert-topology routing.
func RandomSelection(name string, ps *PathSet, seed int64) *Routing {
	rng := rand.New(rand.NewSource(seed))
	r := &Routing{Name: name, N: ps.N, Table: make([][]Path, ps.N)}
	for s := 0; s < ps.N; s++ {
		r.Table[s] = make([]Path, ps.N)
		for d := 0; d < ps.N; d++ {
			if s == d {
				continue
			}
			cands := ps.Paths[s][d]
			r.Table[s][d] = cands[rng.Intn(len(cands))]
		}
	}
	return r
}

// Filter returns a new PathSet keeping only paths accepted by keep;
// flows whose candidates are all rejected fall back to their full
// candidate list (counted in fallbacks), so the result is always
// routable.
func (ps *PathSet) Filter(keep func(Path) bool) (*PathSet, int) {
	out := &PathSet{N: ps.N, Paths: make([][][]Path, ps.N)}
	fallbacks := 0
	for s := 0; s < ps.N; s++ {
		out.Paths[s] = make([][]Path, ps.N)
		for d := 0; d < ps.N; d++ {
			if s == d {
				continue
			}
			var kept []Path
			for _, p := range ps.Paths[s][d] {
				if keep(p) {
					kept = append(kept, p)
				}
			}
			if len(kept) == 0 {
				kept = ps.Paths[s][d]
				fallbacks++
			}
			out.Paths[s][d] = kept
		}
	}
	return out, fallbacks
}
