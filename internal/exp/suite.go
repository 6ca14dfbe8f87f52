// Package exp reproduces every table and figure of the paper's
// evaluation. Each driver returns structured rows and can print them in
// a paper-like layout; cmd/netbench and the root bench_test.go both call
// into this package. A Suite caches synthesized topologies and prepared
// routing/VC setups so that figures sharing inputs do not recompute
// them.
package exp

import (
	"fmt"
	"sync"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
)

// Suite carries experiment fidelity and caches.
type Suite struct {
	// Fast trades fidelity for runtime: fewer synthesis iterations,
	// shorter simulation windows, coarser rate grids. The shapes of all
	// results are preserved; absolute precision drops.
	Fast bool
	Seed int64

	mu     sync.Mutex
	topos  map[string]*topo.Topology
	setups map[string]*sim.Setup
}

// NewSuite returns a Suite; fast=true is the benchmark default.
func NewSuite(fast bool) *Suite {
	return &Suite{Fast: fast, Seed: 42, topos: map[string]*topo.Topology{}, setups: map[string]*sim.Setup{}}
}

func (s *Suite) synthIterations() int {
	if s.Fast {
		return 20000
	}
	return 80000
}

func (s *Suite) synthRestarts() int {
	if s.Fast {
		// Fixed restarts run in parallel (deterministically merged), so
		// fast mode affords four of them in less wall-clock than the two
		// sequential restarts it historically used.
		return 4
	}
	return 5
}

// NS returns the cached NetSmith topology for a grid/class/objective.
func (s *Suite) NS(g *layout.Grid, c layout.Class, obj synth.Objective) (*topo.Topology, error) {
	return s.nsWeighted(g, c, obj, nil, "")
}

// NSShufOpt returns the shuffle-pattern-optimized topology.
func (s *Suite) NSShufOpt(g *layout.Grid, c layout.Class) (*topo.Topology, error) {
	sh := traffic.Shuffle(g.N())
	return s.nsWeighted(g, c, synth.Weighted, sh.WeightMatrix(), "ShufOpt")
}

func (s *Suite) nsWeighted(g *layout.Grid, c layout.Class, obj synth.Objective, w [][]float64, tag string) (*topo.Topology, error) {
	key := fmt.Sprintf("ns/%dx%d/%s/%s/%s", g.Rows, g.Cols, c, obj, tag)
	s.mu.Lock()
	if t, ok := s.topos[key]; ok {
		s.mu.Unlock()
		return t, nil
	}
	s.mu.Unlock()
	res, err := synth.Generate(synth.Config{
		Grid: g, Class: c, Objective: obj, Weights: w,
		Seed: s.Seed, Iterations: s.synthIterations(), Restarts: s.synthRestarts(),
	})
	if err != nil {
		return nil, err
	}
	t := res.Topology
	if tag != "" {
		t.Name = fmt.Sprintf("NS-%s-%s", tag, c)
	}
	s.mu.Lock()
	s.topos[key] = t
	s.mu.Unlock()
	return t, nil
}

// Setup prepares (and caches) routing + VCs for a topology.
func (s *Suite) Setup(t *topo.Topology, kind sim.RoutingKind) (*sim.Setup, error) {
	key := fmt.Sprintf("setup/%s/%d/%s", t.Name, kind, t.CanonicalLinkList())
	s.mu.Lock()
	if st, ok := s.setups[key]; ok {
		s.mu.Unlock()
		return st, nil
	}
	s.mu.Unlock()
	st, err := sim.Prepare(t, kind, s.Seed)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.setups[key] = st
	s.mu.Unlock()
	return st, nil
}

// routingFor selects the paper's per-topology routing: NetSmith
// topologies use MCLB; expert and LPBT baselines use their heuristic
// (NDBT or LPBT-internal, both approximated by NDBT path filtering).
func routingFor(name string) sim.RoutingKind {
	if len(name) >= 3 && name[:3] == "NS-" {
		return sim.UseMCLB
	}
	return sim.UseNDBT
}

// rates returns the sweep grid (coarser when fast).
func (s *Suite) rates() []float64 {
	if s.Fast {
		return []float64{0.005, 0.05, 0.10, 0.14, 0.18, 0.24, 0.32}
	}
	return sim.DefaultRates()
}

// curve runs a sweep for a topology under its standard routing.
func (s *Suite) curve(t *topo.Topology, p traffic.Pattern) (*sim.SweepResult, error) {
	st, err := s.Setup(t, routingFor(t.Name))
	if err != nil {
		return nil, err
	}
	return st.Curve(p, s.rates(), s.Fast, s.Seed)
}

// twentyRouterSet lists the 20-router topologies compared throughout the
// evaluation (experts + LPBT + NetSmith LatOp/SCOp per class).
func (s *Suite) twentyRouterSet() ([]*topo.Topology, error) {
	g := layout.Grid4x5
	var out []*topo.Topology
	for _, name := range []string{
		expert.NameKiteSmall, expert.NameLPBTPower, expert.NameLPBTHopsSmall,
		expert.NameFoldedTorus, expert.NameKiteMedium, expert.NameLPBTHopsMedium,
		expert.NameButterDonut, expert.NameDoubleButterfly, expert.NameKiteLarge,
	} {
		t, err := expert.Get(name, g)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	for _, c := range layout.Classes() {
		for _, obj := range []synth.Objective{synth.LatOp, synth.SCOp} {
			t, err := s.NS(g, c, obj)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	return out, nil
}
