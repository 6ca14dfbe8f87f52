// Package vc assigns virtual channels (VCs) to routed flows so that each
// VC layer's channel dependency graph (CDG) is acyclic, which — per Dally
// and Seitz — suffices for deadlock-free wormhole routing when packets
// stay within their assigned layer.
//
// The assignment follows the paper's adaptation of the DFSSSP idea
// (Domke et al.): shortest paths are partitioned into layers; paths that
// would close a cycle in the current layer's CDG are deferred to the
// next layer. Randomized path orders are tried and the assignment with
// the fewest layers kept; a final pass balances layers by path-length
// weighted occupancy without breaking acyclicity.
package vc

import (
	"fmt"
	"math/rand"

	"netsmith/internal/route"
)

// Assignment maps every routed flow to a VC layer.
type Assignment struct {
	NumVCs  int
	LayerOf [][]int // [src][dst] -> layer; -1 on the diagonal
}

// Layer returns the VC layer of flow (s, d).
func (a *Assignment) Layer(s, d int) int { return a.LayerOf[s][d] }

// flow is one routed (src, dst) pair, its path rewritten as dense link
// IDs.
type flow struct {
	s, d  int
	links []int32 // one per hop
}

// numberFlows numbers the directed links the routing's paths use, in
// first-use order, and returns every routed flow in (src, dst) order
// together with the link count. Graph state then is O(links), not
// O(routers²).
func numberFlows(r *route.Routing) ([]flow, int) {
	n := r.N
	id := make([]int32, n*n) // from*n+to -> link ID + 1; 0 until first use
	var flows []flow
	links := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := r.Table[s][d]
			if s == d || p == nil {
				continue
			}
			f := flow{s: s, d: d, links: make([]int32, p.Hops())}
			for i := range f.links {
				k := p[i]*n + p[i+1]
				if id[k] == 0 {
					links++
					id[k] = int32(links)
				}
				f.links[i] = id[k] - 1
			}
			flows = append(flows, f)
		}
	}
	return flows, links
}

// cdg is one layer's channel dependency graph: nodes are directed links,
// and an edge a->b means some path of the layer takes link b right after
// link a. Edges are refcounted so a path can be removed again.
type cdg struct {
	succ [][]edge // link -> successor links
	dfs  *search
}

type edge struct{ to, refs int32 }

func newCDG(links int, dfs *search) *cdg {
	return &cdg{succ: make([][]edge, links), dfs: dfs}
}

func (g *cdg) add(links []int32) {
	for i := 0; i+1 < len(links); i++ {
		a, b := links[i], links[i+1]
		out := g.succ[a]
		j := 0
		for j < len(out) && out[j].to != b {
			j++
		}
		if j == len(out) {
			g.succ[a] = append(out, edge{to: b, refs: 1})
		} else {
			out[j].refs++
		}
	}
}

func (g *cdg) remove(links []int32) {
	for i := 0; i+1 < len(links); i++ {
		a, b := links[i], links[i+1]
		out := g.succ[a]
		for j := range out {
			if out[j].to != b {
				continue
			}
			if out[j].refs--; out[j].refs == 0 {
				out[j] = out[len(out)-1]
				g.succ[a] = out[:len(out)-1]
			}
			break
		}
	}
}

// reset empties the graph, keeping its successor lists' capacity.
func (g *cdg) reset() {
	for l := range g.succ {
		g.succ[l] = g.succ[l][:0]
	}
}

// search is the three-colour DFS scratch shared by every graph of one
// Assign or Verify call. Marks are epoch-stamped: per search, a link is
// white below epoch, grey at epoch and black at epoch+1, so starting a
// search costs nothing.
type search struct {
	mark   []uint64
	onPath []uint64 // == epoch: the link is on the candidate path, followed by next
	next   []int32
	epoch  uint64 // 64 bits: the stamps never wrap
	stack  []frame
}

type frame struct {
	link int32
	i    int32 // next successor to visit; len(succ) stands for the path edge
}

func newSearch(links int) *search {
	return &search{mark: make([]uint64, links), onPath: make([]uint64, links), next: make([]int32, links)}
}

// findsCycle walks the graph, plus the candidate path's edges stamped
// this epoch, from root, and reports whether it meets a grey link: a
// back edge, hence a cycle.
func (g *cdg) findsCycle(root int32) bool {
	s := g.dfs
	grey, black := s.epoch, s.epoch+1
	s.mark[root] = grey
	s.stack = append(s.stack[:0], frame{link: root})
	for len(s.stack) > 0 {
		top := &s.stack[len(s.stack)-1]
		l := top.link
		out := g.succ[l]
		var to int32
		switch {
		case int(top.i) < len(out):
			to = out[top.i].to
		case int(top.i) == len(out) && s.onPath[l] == grey:
			to = s.next[l]
		default:
			s.mark[l] = black
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		top.i++
		switch m := s.mark[to]; {
		case m == grey:
			return true
		case m < grey:
			s.mark[to] = grey
			s.stack = append(s.stack, frame{link: to})
		}
	}
	return false
}

// acyclic checks the whole graph for cycles, rooting a DFS at every
// link not yet visited. It is Verify's independent certificate.
func (g *cdg) acyclic() bool {
	g.dfs.epoch += 2 // a new search: every link is white
	for root := range g.succ {
		if g.dfs.mark[root] < g.dfs.epoch && g.findsCycle(int32(root)) {
			return false
		}
	}
	return true
}

// wouldStayAcyclic reports whether adding the path keeps the CDG
// acyclic, without changing the graph. The graph is acyclic by
// construction (every path in it passed this check), so a cycle after
// the add must use one of the path's own edges, and all of those are
// reachable from the path's first link. A DFS from there over the graph
// plus the path's edges therefore finds a cycle exactly when a
// whole-graph DFS after the add would.
func (g *cdg) wouldStayAcyclic(links []int32) bool {
	if len(links) < 2 {
		return true // no edges to add
	}
	s := g.dfs
	s.epoch += 2 // a new search: every link is white and off the path
	for i, l := range links[:len(links)-1] {
		if s.onPath[l] == s.epoch {
			return false // the path repeats a link: its own edges close a cycle
		}
		s.onPath[l] = s.epoch
		s.next[l] = links[i+1]
	}
	return !g.findsCycle(links[0])
}

// Options controls VC assignment.
type Options struct {
	Seed   int64
	Tries  int // randomized orders tried (default 8)
	MaxVCs int // error if more layers are needed (0 = unlimited)
}

// Assign partitions the routing's paths into acyclic-CDG layers.
func Assign(r *route.Routing, opts Options) (*Assignment, error) {
	if opts.Tries == 0 {
		opts.Tries = 8
	}
	n := r.N
	flows, links := numberFlows(r)
	dfs := newSearch(links)
	g := newCDG(links, dfs)
	rng := rand.New(rand.NewSource(opts.Seed))
	var best *Assignment
	for try := 0; try < opts.Tries; try++ {
		pending := rng.Perm(len(flows))
		layerOf := make([][]int, n)
		for s := range layerOf {
			layerOf[s] = make([]int, n)
			for d := range layerOf[s] {
				layerOf[s][d] = -1
			}
		}
		layers := 0
		for len(pending) > 0 {
			g.reset()
			var deferred []int
			for _, fi := range pending {
				f := flows[fi]
				if g.wouldStayAcyclic(f.links) {
					g.add(f.links)
					layerOf[f.s][f.d] = layers
				} else {
					deferred = append(deferred, fi)
				}
			}
			if len(deferred) == len(pending) {
				return nil, fmt.Errorf("vc: no progress assigning layer %d", layers)
			}
			pending = deferred
			layers++
		}
		if best == nil || layers < best.NumVCs {
			best = &Assignment{NumVCs: layers, LayerOf: layerOf}
		}
	}
	if opts.MaxVCs > 0 && best.NumVCs > opts.MaxVCs {
		return nil, fmt.Errorf("vc: %d layers needed, max %d", best.NumVCs, opts.MaxVCs)
	}
	balance(flows, links, dfs, best)
	return best, nil
}

// balance evens out path-length weighted VC occupancy: paths are moved
// from heavier to lighter layers whenever the move preserves acyclicity.
func balance(flows []flow, links int, dfs *search, a *Assignment) {
	if a.NumVCs < 2 {
		return
	}
	graphs := make([]*cdg, a.NumVCs)
	weight := make([]int, a.NumVCs)
	for v := range graphs {
		graphs[v] = newCDG(links, dfs)
	}
	for _, f := range flows {
		v := a.LayerOf[f.s][f.d]
		graphs[v].add(f.links)
		weight[v] += len(f.links)
	}
	for pass := 0; pass < 3; pass++ {
		moved := false
		for _, f := range flows {
			from, hops := a.LayerOf[f.s][f.d], len(f.links)
			for to := 0; to < a.NumVCs; to++ {
				if to == from || weight[to]+hops >= weight[from] {
					continue
				}
				if graphs[to].wouldStayAcyclic(f.links) {
					graphs[from].remove(f.links)
					graphs[to].add(f.links)
					weight[from] -= hops
					weight[to] += hops
					a.LayerOf[f.s][f.d] = to
					moved = true
					break
				}
			}
		}
		if !moved {
			break
		}
	}
}

// Verify confirms the assignment is complete and every layer's CDG is
// acyclic. It is the deadlock-freedom check used by tests and the
// simulator's setup path, and checks each whole graph rather than
// trusting how the layers were built.
func (a *Assignment) Verify(r *route.Routing) error {
	flows, links := numberFlows(r)
	dfs := newSearch(links)
	graphs := make([]*cdg, a.NumVCs)
	for v := range graphs {
		graphs[v] = newCDG(links, dfs)
	}
	for _, f := range flows {
		v := a.LayerOf[f.s][f.d]
		if v < 0 || v >= a.NumVCs {
			return fmt.Errorf("vc: flow (%d,%d) has invalid layer %d", f.s, f.d, v)
		}
		graphs[v].add(f.links)
	}
	for v, g := range graphs {
		if !g.acyclic() {
			return fmt.Errorf("vc: layer %d CDG has a cycle", v)
		}
	}
	return nil
}

// Occupancy returns the path-length weighted occupancy per layer.
func (a *Assignment) Occupancy(r *route.Routing) []int {
	w := make([]int, a.NumVCs)
	for s := 0; s < r.N; s++ {
		for d := 0; d < r.N; d++ {
			if s == d || r.Table[s][d] == nil {
				continue
			}
			w[a.LayerOf[s][d]] += r.Table[s][d].Hops()
		}
	}
	return w
}
