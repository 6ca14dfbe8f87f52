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
	"slices"

	"netsmith/internal/par"
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

// flowSet is a routing's flows, numbered for layering, with each link's
// successor and predecessor counts in the union CDG of all flows. No
// layer's CDG gives a link more edges than the union does, so each
// graph carves its lists from one slab of that size and never grows
// them.
type flowSet struct {
	n, links int
	flows    []flow
	out, in  []int32 // per link: successors and predecessors in the union CDG
	edges    int     // union CDG edges
}

// numberFlows numbers the directed links the routing's paths use, in
// first-use order, and returns every routed flow in (src, dst) order
// together with the link count and the union CDG's degrees. Graph state
// then is O(links), not O(routers²). Every flow's link IDs live in one
// shared array.
func numberFlows(r *route.Routing) *flowSet {
	n := r.N
	count, hops := 0, 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if p := r.Table[s][d]; s != d && p != nil {
				count++
				hops += p.Hops()
			}
		}
	}
	id := make([]int32, n*n) // from*n+to -> link ID + 1; 0 until first use
	fs := &flowSet{n: n, flows: make([]flow, 0, count)}
	ids := make([]int32, hops)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := r.Table[s][d]
			if s == d || p == nil {
				continue
			}
			f := flow{s: s, d: d, links: ids[:p.Hops():p.Hops()]}
			ids = ids[p.Hops():]
			for i := range f.links {
				k := p[i]*n + p[i+1]
				if id[k] == 0 {
					fs.links++
					id[k] = int32(fs.links)
				}
				f.links[i] = id[k] - 1
			}
			fs.flows = append(fs.flows, f)
		}
	}
	// A CDG edge a->b is fixed by a and the router b leads to, so
	// seen[a*n+w] marks the union's edges.
	seen := make([]bool, fs.links*n)
	fs.out, fs.in = make([]int32, fs.links), make([]int32, fs.links)
	for _, f := range fs.flows {
		p := r.Table[f.s][f.d]
		for i := 0; i+1 < len(f.links); i++ {
			if k := int(f.links[i])*n + p[i+2]; !seen[k] {
				seen[k] = true
				fs.out[f.links[i]]++
				fs.in[f.links[i+1]]++
				fs.edges++
			}
		}
	}
	return fs
}

// cdg is a channel dependency graph: nodes are directed links, and an
// edge a->b means some path takes link b right after link a. Each entry
// is a link's successor list. Edges are refcounted so a path can be
// removed again.
type cdg [][]edge

type edge struct{ to, refs int32 }

// newCDG returns an empty graph whose successor lists come from one
// slab: link l has room for out[l] edges.
func newCDG(fs *flowSet) cdg {
	g := make(cdg, fs.links)
	slab := make([]edge, fs.edges)
	for l, k := range fs.out {
		g[l], slab = slab[:0:k], slab[k:]
	}
	return g
}

// ref adds a reference to edge a->b and reports whether the edge was
// already there.
func (g cdg) ref(a, b int32) bool {
	out := g[a]
	for j := range out {
		if out[j].to == b {
			out[j].refs++
			return true
		}
	}
	return false
}

// unref drops a reference to edge a->b, which must be there, and
// reports whether that removed the edge.
func (g cdg) unref(a, b int32) bool {
	out := g[a]
	for j := range out {
		if out[j].to != b {
			continue
		}
		if out[j].refs--; out[j].refs > 0 {
			return false
		}
		out[j] = out[len(out)-1]
		g[a] = out[:len(out)-1]
		return true
	}
	panic("vc: removing an edge the graph does not hold")
}

// add adds the path's edges, whether or not they close a cycle. Only
// Verify builds graphs this way; layering goes through orderedCDG.
func (g cdg) add(links []int32) {
	for i := 0; i+1 < len(links); i++ {
		if a, b := links[i], links[i+1]; !g.ref(a, b) {
			g[a] = append(g[a], edge{to: b, refs: 1})
		}
	}
}

// acyclic reports whether the graph has no cycle, by a three-colour
// DFS rooted at every link not yet visited. It is Verify's certificate
// and does not rely on how the graph was built.
func (g cdg) acyclic(s *search) bool {
	grey := s.begin()
	black := grey + 1
	for root := range g {
		if s.mark[root] >= grey {
			continue
		}
		s.mark[root] = grey
		s.stack = append(s.stack[:0], frame{link: int32(root)})
		for len(s.stack) > 0 {
			top := &s.stack[len(s.stack)-1]
			out := g[top.link]
			if int(top.i) == len(out) {
				s.mark[top.link] = black
				s.stack = s.stack[:len(s.stack)-1]
				continue
			}
			to := out[top.i].to
			top.i++
			switch m := s.mark[to]; {
			case m == grey:
				return false // a back edge
			case m < grey:
				s.mark[to] = grey
				s.stack = append(s.stack, frame{link: to})
			}
		}
	}
	return true
}

// orderedCDG is one layer's CDG together with a topological order of
// all its links, kept valid under edge insertion by the Pearce–Kelly
// algorithm (ACM JEA 11, 2006). An edge that agrees with the order
// cannot close a cycle, so it costs no search; any other edge moves
// only the links between its endpoints' positions.
type orderedCDG struct {
	succ cdg
	pred [][]int32 // link -> predecessor links, one entry per edge
	ord  []int32   // link -> position in the order
	at   []int32   // position -> link: the inverse of ord
	s    *search
}

// newOrderedCDG returns an empty graph over the flow set's links, its
// successor and predecessor lists carved from one slab each, sized by
// the union CDG.
func newOrderedCDG(fs *flowSet, s *search) *orderedCDG {
	g := &orderedCDG{
		succ: newCDG(fs),
		pred: make([][]int32, fs.links),
		ord:  make([]int32, fs.links),
		at:   make([]int32, fs.links),
		s:    s,
	}
	slab := make([]int32, fs.edges)
	for l, k := range fs.in {
		g.pred[l], slab = slab[:0:k], slab[k:]
	}
	for l := range g.ord {
		g.ord[l] = int32(l)
		g.at[l] = int32(l)
	}
	return g
}

// tryAdd adds the path's edges unless that would close a cycle, and
// reports whether it did. Edges are inserted in turn; an existing edge
// just gains a reference. On a cycle, the edges added so far are
// removed again and the graph holds exactly the edges it held before.
func (g *orderedCDG) tryAdd(links []int32) bool {
	for i := 0; i+1 < len(links); i++ {
		if !g.insert(links[i], links[i+1]) {
			g.remove(links[:i+1])
			return false
		}
	}
	return true
}

// insert adds a reference to edge a->b unless the edge is new and
// closes a cycle, and reports whether it did.
func (g *orderedCDG) insert(a, b int32) bool {
	if g.succ.ref(a, b) {
		return true
	}
	if g.ord[a] >= g.ord[b] && !g.reorder(a, b) {
		return false
	}
	g.succ[a] = append(g.succ[a], edge{to: b, refs: 1})
	g.pred[b] = append(g.pred[b], a)
	return true
}

// reorder makes the order agree with a new edge x->y, where y is not
// after x, and reports false, changing nothing, when the edge would
// close a cycle. A cycle through x->y needs a path from y to x, and
// every link on such a path lies between y and x in the order. So the
// forward search from y visits only links ordered before x, and reaching
// x means a cycle. Otherwise the backward search from x visits the links
// ordered after y that reach x. Only the links the two searches reached
// move, within the positions they held: the backward set (x and what
// reaches it) takes the first of them and the forward set (y and what
// it reaches) the rest, each set in its old relative order.
func (g *orderedCDG) reorder(x, y int32) bool {
	if x == y {
		return false
	}
	s := g.s
	lo, hi := g.ord[y], g.ord[x]
	fwd := s.begin()
	bwd := fwd + 1
	s.mark[y] = fwd
	s.work = append(s.work[:0], y)
	for len(s.work) > 0 {
		l := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		for _, e := range g.succ[l] {
			if w := e.to; w == x {
				return false
			} else if g.ord[w] < hi && s.mark[w] != fwd {
				s.mark[w] = fwd
				s.work = append(s.work, w)
			}
		}
	}
	s.mark[x] = bwd
	s.work = append(s.work, x)
	for len(s.work) > 0 {
		l := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		for _, w := range g.pred[l] {
			if g.ord[w] > lo && s.mark[w] != bwd {
				s.mark[w] = bwd
				s.work = append(s.work, w)
			}
		}
	}
	// Walk the positions from y's to x's: the marked links take those
	// positions in increasing order, the backward set's first.
	s.fwd, s.bwd, s.pos = s.fwd[:0], s.bwd[:0], s.pos[:0]
	for p := lo; p <= hi; p++ {
		switch l := g.at[p]; s.mark[l] {
		case fwd:
			s.fwd = append(s.fwd, l)
			s.pos = append(s.pos, p)
		case bwd:
			s.bwd = append(s.bwd, l)
			s.pos = append(s.pos, p)
		}
	}
	i := 0
	for _, set := range [2][]int32{s.bwd, s.fwd} {
		for _, l := range set {
			g.ord[l] = s.pos[i]
			g.at[s.pos[i]] = l
			i++
		}
	}
	return true
}

// remove drops one reference to each of the path's edges, which must
// all be in the graph. Removing an edge never breaks the order.
func (g *orderedCDG) remove(links []int32) {
	for i := 0; i+1 < len(links); i++ {
		a, b := links[i], links[i+1]
		if g.succ.unref(a, b) {
			in := g.pred[b]
			j := slices.Index(in, a)
			in[j] = in[len(in)-1]
			g.pred[b] = in[:len(in)-1]
		}
	}
}

// reset empties the graph, keeping its lists' capacity. Any order is
// topological for no edges, so the order stays as it is.
func (g *orderedCDG) reset() {
	for l := range g.succ {
		g.succ[l] = g.succ[l][:0]
		g.pred[l] = g.pred[l][:0]
	}
}

// search is the scratch shared by the graphs of one layering worker, of
// balance or of Verify. Marks are epoch-stamped, so starting a search
// costs nothing: per search, a link is unvisited below epoch, visited
// (grey in Verify's DFS) at epoch and black at epoch+1.
type search struct {
	mark  []uint64
	epoch uint64 // 64 bits: the stamps never wrap
	stack []frame
	// Pearce–Kelly scratch: the searches' worklist, then the links each
	// search reached and the positions they share, in order.
	work, fwd, bwd, pos []int32
}

type frame struct {
	link int32
	i    int32 // next successor to visit
}

func newSearch(links int) *search { return &search{mark: make([]uint64, links)} }

// begin starts a new search and returns its epoch.
func (s *search) begin() uint64 {
	s.epoch += 2
	return s.epoch
}

// Options controls VC assignment.
type Options struct {
	Seed  int64
	Tries int // randomized orders tried (default 8)
}

// Assign partitions the routing's paths into acyclic-CDG layers. Tries
// run in parallel: every try's random path order is drawn from the one
// rng up front, in try order, and the lowest try index among those with
// the fewest layers wins (or the lowest failing try's error), so the
// result is the sequential one.
func Assign(r *route.Routing, opts Options) (*Assignment, error) {
	if opts.Tries == 0 {
		opts.Tries = 8
	}
	fs := numberFlows(r)
	rng := rand.New(rand.NewSource(opts.Seed))
	orders := make([][]int, opts.Tries)
	for t := range orders {
		orders[t] = rng.Perm(len(fs.flows))
	}
	workers := make([]*layering, par.Workers(opts.Tries))
	par.For(opts.Tries, func(w, t int) {
		l := workers[w]
		if l == nil {
			l = newLayering(fs)
			workers[w] = l
		}
		l.try(t, orders[t])
	})
	var best, failed *layering
	for _, l := range workers {
		switch {
		case l == nil:
		case l.err != nil:
			if failed == nil || l.errTry < failed.errTry {
				failed = l
			}
		case best == nil || l.bestVCs < best.bestVCs || (l.bestVCs == best.bestVCs && l.bestTry < best.bestTry):
			best = l
		}
	}
	if failed != nil {
		return nil, failed.err
	}
	a := &Assignment{NumVCs: best.bestVCs, LayerOf: make([][]int, fs.n)}
	for s := range a.LayerOf {
		a.LayerOf[s] = best.best[s*fs.n : (s+1)*fs.n : (s+1)*fs.n]
	}
	balance(fs, a)
	return a, nil
}

// layering is one worker's scratch for layering tries: its own graph
// and search, a spare path list, and the best layering among the tries
// it ran (or its first failure). Acyclicity answers do not depend on
// the order a graph starts from, so a worker's graph refuses exactly the
// paths any other graph would.
type layering struct {
	fs      *flowSet
	g       *orderedCDG
	spare   []int
	layerOf []int // src*n+dst -> layer, for the running try
	// The worker's best try: fewest layers, then lowest index.
	best             []int
	bestVCs, bestTry int
	err              error
	errTry           int
}

func newLayering(fs *flowSet) *layering {
	return &layering{
		fs:      fs,
		g:       newOrderedCDG(fs, newSearch(fs.links)),
		spare:   make([]int, 0, len(fs.flows)),
		layerOf: make([]int, fs.n*fs.n),
	}
}

// try layers the flows in the given order: a path joins the current
// layer unless it closes a cycle there, and waits for the next layer
// otherwise. The worker's tries come in increasing index order, so the
// strict comparison keeps the lowest index among equals, and a failure
// ends the worker's share as it would end a sequential run.
func (l *layering) try(t int, pending []int) {
	if l.err != nil {
		return
	}
	for i := range l.layerOf {
		l.layerOf[i] = -1
	}
	layers := 0
	for len(pending) > 0 {
		l.g.reset()
		deferred := l.spare[:0]
		for _, fi := range pending {
			f := l.fs.flows[fi]
			if l.g.tryAdd(f.links) {
				l.layerOf[f.s*l.fs.n+f.d] = layers
			} else {
				deferred = append(deferred, fi)
			}
		}
		if len(deferred) == len(pending) {
			l.err, l.errTry = fmt.Errorf("vc: no progress assigning layer %d", layers), t
			return
		}
		l.spare, pending = pending, deferred
		layers++
	}
	if l.best == nil || layers < l.bestVCs {
		if l.best == nil {
			l.best = make([]int, len(l.layerOf))
		}
		l.best, l.layerOf = l.layerOf, l.best
		l.bestVCs, l.bestTry = layers, t
	}
}

// layerGraphs builds every layer's ordered CDG from the assignment,
// whose layers must be acyclic.
func layerGraphs(fs *flowSet, s *search, a *Assignment) []*orderedCDG {
	graphs := make([]*orderedCDG, a.NumVCs)
	for v := range graphs {
		graphs[v] = newOrderedCDG(fs, s)
	}
	for _, f := range fs.flows {
		if !graphs[a.LayerOf[f.s][f.d]].tryAdd(f.links) {
			panic("vc: an assigned layer's CDG has a cycle")
		}
	}
	return graphs
}

// balance evens out path-length weighted VC occupancy: paths are moved
// from heavier to lighter layers whenever the move preserves acyclicity.
// It runs serially: each move depends on the moves before it.
func balance(fs *flowSet, a *Assignment) {
	if a.NumVCs < 2 {
		return
	}
	graphs := layerGraphs(fs, newSearch(fs.links), a)
	weight := make([]int, a.NumVCs)
	for _, f := range fs.flows {
		weight[a.LayerOf[f.s][f.d]] += len(f.links)
	}
	for pass := 0; pass < 3; pass++ {
		moved := false
		for _, f := range fs.flows {
			from, hops := a.LayerOf[f.s][f.d], len(f.links)
			for to := 0; to < a.NumVCs; to++ {
				if to == from || weight[to]+hops >= weight[from] {
					continue
				}
				if graphs[to].tryAdd(f.links) {
					graphs[from].remove(f.links)
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
	fs := numberFlows(r)
	graphs := make([]cdg, a.NumVCs)
	for v := range graphs {
		graphs[v] = newCDG(fs)
	}
	for _, f := range fs.flows {
		v := a.LayerOf[f.s][f.d]
		if v < 0 || v >= a.NumVCs {
			return fmt.Errorf("vc: flow (%d,%d) has invalid layer %d", f.s, f.d, v)
		}
		graphs[v].add(f.links)
	}
	s := newSearch(fs.links)
	for v, g := range graphs {
		if !g.acyclic(s) {
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
