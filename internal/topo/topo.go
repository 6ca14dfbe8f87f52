// Package topo defines the directed network topology representation used
// throughout NetSmith and the graph metrics the optimizer reasons about:
// all-pairs shortest-path hop distances, average hops, diameter, bisection
// bandwidth and sparsest cut.
//
// Topologies are directed: NetSmith supports asymmetric links, where the
// outgoing half of a full-duplex link budget may connect to a different
// router than the incoming half (as in the SiCortex Kautz networks). A
// symmetric topology simply contains both directions of every link.
package topo

import (
	"fmt"
	"sort"
	"strings"

	"netsmith/internal/bitgraph"
	"netsmith/internal/layout"
)

// Topology is a directed graph over n routers placed on a physical grid.
type Topology struct {
	Name  string
	Grid  *layout.Grid
	Class layout.Class
	n     int
	adj   [][]bool
	// out and in cache adjacency lists; linkList and linkID cache the
	// dense directed-link numbering; bg caches the bitset view used by
	// the cut metrics. All are rebuilt lazily after mutation.
	out, in  [][]int
	linkList []layout.Link
	linkID   []int32 // n*n lookup, -1 for absent links
	bg       *bitgraph.Graph
	dirty    bool
}

// New creates an empty topology over the grid.
func New(name string, g *layout.Grid, c layout.Class) *Topology {
	n := g.N()
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Topology{Name: name, Grid: g, Class: c, n: n, adj: adj, dirty: true}
}

// FromPairs builds a topology from undirected pairs, adding both
// directions of each link.
func FromPairs(name string, g *layout.Grid, c layout.Class, pairs [][2]int) *Topology {
	t := New(name, g, c)
	for _, p := range pairs {
		t.AddLink(p[0], p[1])
		t.AddLink(p[1], p[0])
	}
	return t
}

// N returns the number of routers.
func (t *Topology) N() int { return t.n }

// Has reports whether the directed link a->b exists.
func (t *Topology) Has(a, b int) bool { return t.adj[a][b] }

// AddLink inserts the directed link a->b (idempotent).
func (t *Topology) AddLink(a, b int) {
	if a == b {
		panic(fmt.Sprintf("topo: self link %d->%d", a, b))
	}
	if !t.adj[a][b] {
		t.adj[a][b] = true
		t.dirty = true
	}
}

// RemoveLink deletes the directed link a->b (idempotent).
func (t *Topology) RemoveLink(a, b int) {
	if t.adj[a][b] {
		t.adj[a][b] = false
		t.dirty = true
	}
}

// Clone returns a deep copy, preserving name unless renamed later.
func (t *Topology) Clone() *Topology {
	c := New(t.Name, t.Grid, t.Class)
	for i := 0; i < t.n; i++ {
		copy(c.adj[i], t.adj[i])
	}
	return c
}

// Links returns all directed links in deterministic (dense-ID) order.
// The caller may keep or mutate the returned slice.
func (t *Topology) Links() []layout.Link {
	t.refresh()
	links := make([]layout.Link, len(t.linkList))
	copy(links, t.linkList)
	return links
}

// NumDirectedLinks counts directed links. It is also the number of
// dense link IDs: IDs are 0..NumDirectedLinks()-1.
func (t *Topology) NumDirectedLinks() int {
	t.refresh()
	return len(t.linkList)
}

// LinkID returns the dense ID of the directed link a->b, or -1 when the
// link does not exist. IDs are contiguous in [0, NumDirectedLinks()) and
// enumerate links in the deterministic Links() order; they are stable
// until the topology is mutated.
func (t *Topology) LinkID(a, b int) int {
	t.refresh()
	return int(t.linkID[a*t.n+b])
}

// LinkByID returns the directed link with the given dense ID.
func (t *Topology) LinkByID(id int) layout.Link {
	t.refresh()
	return t.linkList[id]
}

// NumLinks counts links in the paper's Table II accounting: hardware
// full-duplex link budgets. Each full-duplex link contributes one outgoing
// and one incoming wire half; with asymmetric links the two halves may
// terminate at different routers, so the budget count is the number of
// directed wires divided by two (rounded up). For symmetric topologies
// this equals the usual undirected link count.
func (t *Topology) NumLinks() int {
	return (t.NumDirectedLinks() + 1) / 2
}

// refresh rebuilds adjacency lists and the dense link index after
// mutations.
func (t *Topology) refresh() {
	if !t.dirty {
		return
	}
	t.out = make([][]int, t.n)
	t.in = make([][]int, t.n)
	t.linkList = t.linkList[:0]
	if t.linkID == nil {
		t.linkID = make([]int32, t.n*t.n)
	}
	t.bg = bitgraph.New(t.n)
	for a := 0; a < t.n; a++ {
		for b := 0; b < t.n; b++ {
			if t.adj[a][b] {
				t.out[a] = append(t.out[a], b)
				t.in[b] = append(t.in[b], a)
				t.linkID[a*t.n+b] = int32(len(t.linkList))
				t.linkList = append(t.linkList, layout.Link{From: a, To: b})
				t.bg.Add(a, b)
			} else {
				t.linkID[a*t.n+b] = -1
			}
		}
	}
	t.dirty = false
}

// Out returns the out-neighbors of router a. The returned slice must not
// be modified.
func (t *Topology) Out(a int) []int {
	t.refresh()
	return t.out[a]
}

// In returns the in-neighbors of router a. The returned slice must not be
// modified.
func (t *Topology) In(a int) []int {
	t.refresh()
	return t.in[a]
}

// OutDegree returns the number of outgoing links at router a.
func (t *Topology) OutDegree(a int) int { return len(t.Out(a)) }

// InDegree returns the number of incoming links at router a.
func (t *Topology) InDegree(a int) int { return len(t.In(a)) }

// RespectsRadix reports whether every router's in- and out-degree is at
// most radix (constraint C2 of Table I).
func (t *Topology) RespectsRadix(radix int) bool {
	for a := 0; a < t.n; a++ {
		if t.OutDegree(a) > radix || t.InDegree(a) > radix {
			return false
		}
	}
	return true
}

// RespectsLinkLengths reports whether every link is within the topology's
// link-length class (constraint C3 of Table I).
func (t *Topology) RespectsLinkLengths() bool {
	for a := 0; a < t.n; a++ {
		for b := 0; b < t.n; b++ {
			if t.adj[a][b] {
				dx, dy := t.Grid.Span(a, b)
				if !t.Class.Allows(dx, dy) {
					return false
				}
			}
		}
	}
	return true
}

// IsSymmetric reports whether every link a->b is paired with b->a
// (constraint C9 of Table I).
func (t *Topology) IsSymmetric() bool {
	for a := 0; a < t.n; a++ {
		for b := a + 1; b < t.n; b++ {
			if t.adj[a][b] != t.adj[b][a] {
				return false
			}
		}
	}
	return true
}

// TotalWireLengthMM sums the physical wire length over all directed links
// (each direction is a separate wire), used by the power/area model.
func (t *Topology) TotalWireLengthMM() float64 {
	total := 0.0
	for a := 0; a < t.n; a++ {
		for b := 0; b < t.n; b++ {
			if t.adj[a][b] {
				total += t.Grid.LengthMM(a, b)
			}
		}
	}
	return total
}

// String renders a compact description.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s, %s]: %d links", t.Name, t.Grid, t.Class, t.NumLinks())
	return b.String()
}

// CanonicalLinkList renders the link set as a sorted, comparable string
// (used in tests to detect identical topologies).
func (t *Topology) CanonicalLinkList() string {
	links := t.Links()
	parts := make([]string, len(links))
	for i, l := range links {
		parts[i] = fmt.Sprintf("%d>%d", l.From, l.To)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
