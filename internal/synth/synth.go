// Package synth implements NetSmith's topology generation: the paper's
// primary contribution. Given a physical router layout, a link-length
// class and a router radix, it searches the space of directed topologies
// for ones that minimize average hop count (LatOp), maximize sparsest-cut
// bandwidth (SCOp), or minimize traffic-weighted hops (pattern-optimized,
// e.g. ShufOpt), subject to the constraint set of the paper's Table I:
//
//	C1 no self links            C2 in/out radix
//	C3 link-length set L        C4/C5 shortest-path distances
//	C6/C7 sparsest-cut bound    C8 optional diameter bound
//	C9 optional link symmetry
//
// The paper solves a MILP with Gurobi. This implementation substitutes a
// specialized optimizer (documented in DESIGN.md): simulated annealing
// over feasible link sets with exact incremental metric evaluation, and
// lazy sparsest-cut constraint generation for the SCOp objective (the
// row-generation idea from MILP practice). Solver progress is reported
// as an objective-bounds gap against rigorous lower bounds, mirroring the
// paper's Figure 5; the package's tests certify the annealer against an
// exact branch-and-bound on small instances.
package synth

import (
	"errors"
	"fmt"
	"math"

	"netsmith/internal/layout"
	"netsmith/internal/store"
	"netsmith/internal/topo"
)

// Objective selects what Generate optimizes.
type Objective int

const (
	// LatOp minimizes total (equivalently average) shortest-path hop
	// count under uniform all-to-all traffic (objective O1).
	LatOp Objective = iota
	// SCOp maximizes the sparsest-cut bandwidth (objective O2), breaking
	// ties toward lower average hops.
	SCOp
	// Weighted minimizes the traffic-matrix-weighted total hop count;
	// used for pattern-optimized topologies such as NS-ShufOpt.
	Weighted
)

// String names the objective as used in the paper ("LatOp", "SCOp").
func (o Objective) String() string {
	switch o {
	case LatOp:
		return "LatOp"
	case SCOp:
		return "SCOp"
	case Weighted:
		return "Weighted"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Config parameterizes a synthesis run. Zero values select paper defaults
// where meaningful.
type Config struct {
	Grid  *layout.Grid
	Class layout.Class

	// Radix caps both the in-degree and out-degree of every router
	// (constraint C2). Default 4, the NoI-facing radix in the paper's
	// 4x5 configuration.
	Radix int

	// Objective selects LatOp, SCOp or Weighted.
	Objective Objective

	// Weights is the traffic demand matrix for the Weighted objective
	// (ignored otherwise). Weights[s][d] >= 0.
	Weights [][]float64

	// Symmetric forces every link to be paired with its reverse
	// (constraint C9). The paper found asymmetric links gain ~3%
	// throughput; default false (asymmetric allowed).
	Symmetric bool

	// MaxDiameter, when positive, rejects topologies whose diameter
	// exceeds it (constraint C8).
	MaxDiameter int

	// MinCutBW, when positive, requires the sparsest-cut bandwidth to be
	// at least this value (constraint C7). Applies to any objective.
	MinCutBW float64

	// EnergyWeight, when positive, adds an energy proxy to the scalarized
	// score: per candidate link, wire dynamic energy (pJ/flit, length
	// times the 22nm wire constant) plus a per-port leakage proxy (one
	// output plus one input port per link). The proxy is linear in the
	// link set, so the annealer maintains it incrementally through
	// bitgraph.Eval Add/Remove; costs are pre-scaled to integer
	// milli-units, keeping incremental and recomputed scores
	// bit-identical. Weight 1 trades one hop of total path length against
	// one proxy unit; Result.Objective still reports the raw objective
	// while Result.EnergyProxy reports the proxy of the chosen topology.
	EnergyWeight float64

	// RobustWeight, when positive, adds a fragility term to the
	// scalarized score: per-router degree slack (out- and in-degrees
	// below 2 each count their shortfall — a router with a single exit
	// dies with that link) plus the pool min-cut slack (registered cuts
	// crossed by fewer than 2 links in either direction). The term is a
	// small integer, monotone non-worsening under link additions, and
	// maintained through the same transactional evaluator as the other
	// components, so incremental and recomputed scores stay
	// bit-identical. After annealing, an exact single-link-failure
	// oracle probes every incumbent link; each critical link (one whose
	// loss disconnects a pair) certifies a 1-crossing cut that is added
	// to the pool before re-annealing, so the final topology prices its
	// true worst-case failure, not just the seeded geometric cuts.
	// Result.CriticalLinks and Result.Fragility report what remains.
	RobustWeight float64

	// Seed makes runs reproducible. Iterations is the annealing step
	// count per restart; Restarts the number of independent restarts.
	// Defaults: Iterations 60000, Restarts 4. The step budget is the
	// only budget, so a run is a pure function of its Config.
	Seed       int64
	Iterations int
	Restarts   int

	// Population, when >= 2, switches Generate to population mode: a
	// pool of Population topologies evolved for Generations rounds of
	// tournament selection, link-subset crossover with journaled
	// connectivity repair, and short anneal bursts of Iterations steps
	// each (Restarts is ignored). Evolution is a pure function of the
	// Config: same seed, same topology, at any GOMAXPROCS. The total
	// search budget is Population * (1 + Generations) * Iterations
	// annealing steps (initial portfolio plus one burst per child).
	Population int
	// Generations is the number of evolution rounds in population mode
	// (default 8 when Population > 0, ignored otherwise).
	Generations int

	// Store, when non-nil, caches the deterministic initial-population
	// portfolio members under family keys (grid, class, radix, symmetry
	// and budget — but not weights, objective or seed), so past
	// population runs warm-start nearby configs. The store is purely a
	// cache of pure computations: results are bit-identical with or
	// without it. CachedGenerate wires it automatically.
	Store *store.Store

	// Progress, when non-nil, receives solver progress points (steps,
	// incumbent objective, bound, gap) as the incumbent improves. The
	// points arrive after the parallel restarts merge, in merge order,
	// and equal Result.Trace.
	Progress func(ProgressPoint)
}

// ProgressPoint is one sample of solver progress, used to reproduce the
// paper's Figure 5 (objective bounds gap vs. search effort).
//
// Steps is the cumulative number of annealing steps at which the
// incumbent improved, counted in the deterministic merge order: restarts
// in index order (then the separation and fragility oracle rounds), or
// population stages of Population*Iterations steps each. It never
// decreases along a trace.
//
// Gap is the relative objective-bounds gap, clamped to [0, 1], with a
// per-objective formula matching the optimization direction:
//
//   - LatOp / Weighted (minimization, lower bound):
//     (incumbent - bound) / incumbent, or 0 when incumbent <= 0;
//   - SCOp (maximization, upper bound):
//     (bound - incumbent) / bound, or 0 when bound <= 0.
type ProgressPoint struct {
	Steps     int64
	Incumbent float64 // current best objective (total hops for LatOp)
	Bound     float64 // best known bound (lower for LatOp, upper for SCOp)
	Gap       float64 // relative objective-bounds gap; see above
}

// Result is the outcome of a synthesis run.
type Result struct {
	Topology *topo.Topology
	// Objective is the achieved objective value: total hops (LatOp),
	// sparsest-cut bandwidth (SCOp) or weighted total hops (Weighted).
	Objective float64
	// Bound is the rigorous bound on the optimum (lower bound for
	// minimization, upper for SCOp); Gap the resulting bounds gap.
	Bound float64
	Gap   float64
	// Optimal is true when the search proved the result optimal: the
	// achieved objective meets the bound.
	Optimal bool
	// EnergyProxy is the topology's energy-proxy value (wire dynamic +
	// per-port leakage proxies summed over links, in the proxy's native
	// units); filled whenever EnergyWeight > 0.
	EnergyProxy float64
	// CriticalLinks counts the links whose single failure disconnects at
	// least one ordered pair, and Fragility the chosen topology's
	// fragility term (degree slack + pool cut slack); both are filled
	// whenever RobustWeight > 0. A topology with CriticalLinks == 0
	// survives any one link loss with full reachability.
	CriticalLinks int
	Fragility     int
	// Trace holds solver-progress samples.
	Trace []ProgressPoint
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Grid == nil {
		return cfg, errors.New("synth: Config.Grid is required")
	}
	if cfg.Radix == 0 {
		cfg.Radix = 4
	}
	if cfg.Radix < 1 {
		return cfg, fmt.Errorf("synth: invalid radix %d", cfg.Radix)
	}
	if !(cfg.EnergyWeight >= 0) || math.IsInf(cfg.EnergyWeight, 0) {
		return cfg, fmt.Errorf("synth: energy weight %v must be finite and non-negative", cfg.EnergyWeight)
	}
	if !(cfg.RobustWeight >= 0) || math.IsInf(cfg.RobustWeight, 0) {
		return cfg, fmt.Errorf("synth: robust weight %v must be finite and non-negative", cfg.RobustWeight)
	}
	if cfg.Iterations < 0 {
		return cfg, fmt.Errorf("synth: negative iterations %d", cfg.Iterations)
	}
	if cfg.Restarts < 0 {
		return cfg, fmt.Errorf("synth: negative restarts %d", cfg.Restarts)
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 60000
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 4
	}
	if cfg.Population < 0 || cfg.Population == 1 {
		return cfg, fmt.Errorf("synth: population must be 0 (off) or >= 2, got %d", cfg.Population)
	}
	if cfg.Generations < 0 {
		return cfg, fmt.Errorf("synth: negative generations %d", cfg.Generations)
	}
	if cfg.Generations > 0 && cfg.Population == 0 {
		return cfg, errors.New("synth: Generations requires Population >= 2")
	}
	if cfg.Population > 0 && cfg.Generations == 0 {
		cfg.Generations = 8
	}
	if cfg.Objective == Weighted {
		n := cfg.Grid.N()
		if len(cfg.Weights) != n {
			return cfg, fmt.Errorf("synth: Weighted objective needs %dx%d weight matrix", n, n)
		}
		for s, row := range cfg.Weights {
			if len(row) != n {
				return cfg, fmt.Errorf("synth: Weighted objective needs %dx%d weight matrix", n, n)
			}
			for d, w := range row {
				if !(w >= 0) || math.IsInf(w, 0) {
					return cfg, fmt.Errorf("synth: demand weight [%d][%d] = %v must be finite and non-negative", s, d, w)
				}
			}
		}
	}
	return cfg, nil
}

// Generate runs NetSmith topology synthesis and returns the best topology
// found, with bound and gap information.
func Generate(c Config) (*Result, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	ann := newAnnealer(cfg)
	return ann.run()
}

// nameFor produces the paper-style topology name, e.g.
// "NS-LatOp-medium".
func nameFor(cfg Config) string {
	base := "NS-" + cfg.Objective.String()
	if cfg.Objective == Weighted {
		base = "NS-PatternOpt"
	}
	return fmt.Sprintf("%s-%s", base, cfg.Class)
}

// seedTopology builds a feasible strongly connected starting topology: a
// boustrophedon directed cycle through the grid (unit-length links, valid
// in every class), optionally symmetrized.
func seedTopology(cfg Config) *topo.Topology {
	g := cfg.Grid
	t := topo.New(nameFor(cfg), g, cfg.Class)
	n := g.N()
	order := make([]int, 0, n)
	for row := 0; row < g.Rows; row++ {
		if row%2 == 0 {
			for col := 0; col < g.Cols; col++ {
				order = append(order, g.Router(row, col))
			}
		} else {
			for col := g.Cols - 1; col >= 0; col-- {
				order = append(order, g.Router(row, col))
			}
		}
	}
	// Forward along the snake.
	for i := 0; i+1 < n; i++ {
		t.AddLink(order[i], order[i+1])
	}
	// Return path up the first column (last snake router is in column 0
	// or Cols-1 depending on row parity; walk back via its column).
	last := order[n-1]
	_, lastCol := g.Pos(last)
	for row := g.Rows - 1; row > 0; row-- {
		t.AddLink(g.Router(row, lastCol), g.Router(row-1, lastCol))
	}
	// Close the loop along row 0 back to router order[0].
	_, firstCol := g.Pos(order[0])
	if lastCol > firstCol {
		for col := lastCol; col > firstCol; col-- {
			t.AddLink(g.Router(0, col), g.Router(0, col-1))
		}
	} else {
		for col := lastCol; col < firstCol; col++ {
			t.AddLink(g.Router(0, col), g.Router(0, col+1))
		}
	}
	if cfg.Symmetric {
		for _, l := range t.Links() {
			t.AddLink(l.To, l.From)
		}
	}
	return t
}
