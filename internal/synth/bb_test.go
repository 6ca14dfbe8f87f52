package synth

import (
	"errors"
	"math"
	"testing"

	"netsmith/internal/bitgraph"
	"netsmith/internal/layout"
)

// ExactLatOp solves the LatOp objective exactly by branch-and-bound over
// the candidate link set, for small instances. It decides link inclusion
// in depth-first order; the bound at each node is the total hop count of
// the optimistic graph containing all included plus all undecided links
// (adding links never increases distances, so this is a valid lower bound
// on every completion). nodeBudget caps the number of search-tree nodes;
// when exceeded, the best incumbent is returned with Optimal=false.
//
// This is the hand-rolled analogue of the paper's Gurobi MILP solve and is
// used to certify the annealer's solutions on small grids.
func ExactLatOp(c Config, nodeBudget int64) (*Result, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Objective != LatOp {
		return nil, errors.New("synth: ExactLatOp requires Objective == LatOp")
	}
	if cfg.Grid.N() > 16 {
		return nil, errors.New("synth: ExactLatOp is intended for <= 16 routers")
	}
	if nodeBudget <= 0 {
		nodeBudget = 50_000_000
	}

	// Candidate decisions: directed links for asymmetric search,
	// canonical (a<b) pairs for symmetric search.
	type decision struct{ a, b int }
	var decisions []decision
	for _, l := range cfg.Grid.ValidLinks(cfg.Class) {
		if cfg.Symmetric && l.From > l.To {
			continue
		}
		decisions = append(decisions, decision{l.From, l.To})
	}

	n := cfg.Grid.N()
	bb := &bbState{
		cfg:    cfg,
		s:      bitgraph.New(n),
		budget: nodeBudget,
		best:   math.Inf(1),
	}
	// Warm start from the annealer to tighten pruning.
	warmCfg := cfg
	warmCfg.Iterations = 8000
	warmCfg.Restarts = 2
	warmCfg.Progress = nil
	if warm, err := Generate(warmCfg); err == nil {
		if total, ok := warm.Topology.TotalHops(); ok {
			bb.best = float64(total)
			bb.bestState = stateFromTopology(warm.Topology)
		}
	}

	// undecided[i] holds masks of links not yet decided at depth >= i; we
	// maintain an "optimistic" graph = included + undecided via
	// incremental removal as we exclude links.
	opt := bitgraph.New(n)
	for _, d := range decisions {
		opt.Add(d.a, d.b)
		if cfg.Symmetric {
			opt.Add(d.b, d.a)
		}
	}

	var dfs func(idx int)
	dfs = func(idx int) {
		if bb.nodes >= bb.budget {
			bb.truncated = true
			return
		}
		bb.nodes++
		// Bound from the optimistic graph.
		total, unreachable, diam := opt.HopStats()
		if unreachable > 0 {
			return // even with every remaining link, disconnected
		}
		if cfg.MaxDiameter > 0 && diam > cfg.MaxDiameter {
			return
		}
		if float64(total) >= bb.best {
			return
		}
		if idx == len(decisions) {
			// All decided: opt now equals the included set exactly.
			cur, curUnreach, curDiam := bb.s.HopStats()
			if curUnreach > 0 {
				return
			}
			if cfg.MaxDiameter > 0 && curDiam > cfg.MaxDiameter {
				return
			}
			if float64(cur) < bb.best {
				bb.best = float64(cur)
				bb.bestState = bb.s.Clone()
			}
			return
		}
		d := decisions[idx]
		// Branch 1: include (if radix allows).
		canInclude := bb.s.OutDeg[d.a] < cfg.Radix && bb.s.InDeg[d.b] < cfg.Radix
		if cfg.Symmetric {
			canInclude = canInclude && bb.s.OutDeg[d.b] < cfg.Radix && bb.s.InDeg[d.a] < cfg.Radix
		}
		if canInclude {
			bb.s.Add(d.a, d.b)
			if cfg.Symmetric {
				bb.s.Add(d.b, d.a)
			}
			dfs(idx + 1)
			bb.s.Remove(d.a, d.b)
			if cfg.Symmetric {
				bb.s.Remove(d.b, d.a)
			}
		}
		// Branch 2: exclude — remove from the optimistic graph.
		opt.Remove(d.a, d.b)
		if cfg.Symmetric {
			opt.Remove(d.b, d.a)
		}
		dfs(idx + 1)
		opt.Add(d.a, d.b)
		if cfg.Symmetric {
			opt.Add(d.b, d.a)
		}
	}
	dfs(0)

	if bb.bestState == nil {
		return nil, errors.New("synth: branch-and-bound found no feasible topology")
	}
	a := newAnnealer(cfg)
	t := a.toTopology(bb.bestState)
	res := &Result{
		Topology:  t,
		Objective: bb.best,
		Bound:     latOpLowerBound(cfg),
		Optimal:   !bb.truncated,
	}
	if res.Objective > 0 {
		res.Gap = math.Max(0, (res.Objective-res.Bound)/res.Objective)
	}
	return res, nil
}

type bbState struct {
	cfg       Config
	s         *bitgraph.Graph
	best      float64
	bestState *bitgraph.Graph
	nodes     int64
	budget    int64
	truncated bool
}

// BenchmarkExactLatOpTiny measures the branch-and-bound optimality
// certification on a small instance.
func BenchmarkExactLatOpTiny(b *testing.B) {
	cfg := Config{Grid: layout.NewGrid(1, 4), Class: layout.Large, Radix: 2,
		Objective: LatOp, Seed: 3, Iterations: 2000, Restarts: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExactLatOp(cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}
