package synth

import (
	"math"

	"netsmith/internal/bitgraph"
)

// Penalty weights for constraint violations in the scalarized score.
// Violations dominate any legitimate objective difference so the search
// always returns to the feasible region.
const (
	penaltyDisconnected = 1e7 // per unreachable ordered pair
	penaltyDiameter     = 1e6 // per hop of diameter excess
	penaltyMinCut       = 1e9 // per unit of C7 shortfall
	scopeCutScale       = 1e6 // SCOp: bandwidth dominates hop tiebreak
)

// evaluator bundles the config with the lazy cut pool. It is shared
// read-only by concurrent restarts; the pool only grows between
// annealing phases (SCOp row generation).
type evaluator struct {
	cfg     Config
	full    bitgraph.Set
	cutPool []bitgraph.Set
	// linkCostMilli prices a directed link in integer milli-units of the
	// energy proxy (non-nil iff EnergyWeight > 0). Integer costs keep the
	// incrementally maintained sum exact and order-independent, so the
	// incremental score stays bit-identical to fullScore.
	linkCostMilli func(a, b int) int64
}

// Energy-proxy constants. These mirror power.Default22nm()'s
// WireDynPJPerFlitMM and RouterLeakMWPerPort; synth cannot import power
// (power's analytic model imports route, and expert's calibration
// imports synth, which would close an import cycle through the route
// and power test binaries), so the two constants are duplicated here
// and pinned equal by TestEnergyProxyConstantsMatchPowerModel.
const (
	energyWirePJPerFlitMM = 0.18
	energyPortLeakMW      = 0.25
)

// energyCostMilli builds the per-link energy-proxy pricer: wire dynamic
// energy per flit-crossing (22nm wire constant times the link's physical
// length) plus a per-port leakage proxy (each directed link occupies one
// output and one input port), scaled by 1000 and rounded to an integer.
func energyCostMilli(cfg *Config) func(a, b int) int64 {
	g := cfg.Grid
	return func(a, b int) int64 {
		wire := energyWirePJPerFlitMM * g.LengthMM(a, b)
		return int64(math.Round(1000 * (wire + energyPortLeakMW)))
	}
}

// energyProxyOf converts the maintained milli-unit sum back to proxy
// units for scoring and reporting.
func energyProxyOf(sumMilli int64) float64 { return float64(sumMilli) / 1000 }

// energyProxySum prices a whole link set (the from-scratch counterpart
// of Eval.LinkCost; integer additions commute, so any iteration order
// yields the same sum).
func (e *evaluator) energyProxySum(s *bitgraph.Graph) int64 {
	var sum int64
	for _, l := range s.Links() {
		sum += e.linkCostMilli(l.A, l.B)
	}
	return sum
}

// newEvaluator seeds the cut pool with geometric cuts (row and column
// prefixes): these are the bottleneck candidates on grid layouts, and the
// pool grows lazily as the exact separation oracle finds sparser cuts.
func newEvaluator(cfg Config) *evaluator {
	e := &evaluator{
		cfg:     cfg,
		full:    bitgraph.FullSet(cfg.Grid.N()),
		cutPool: GeometricCuts(cfg.Grid),
	}
	if cfg.EnergyWeight > 0 {
		e.linkCostMilli = energyCostMilli(&e.cfg)
	}
	return e
}

// addCut registers a new separating cut if not already present. A cut
// equals an existing pool entry when the partition sets match or when
// one is the other's complement within the n-node universe (both
// describe the same two-way partition; bitgraph.SamePartition is the
// shared definition). Returns true if the pool grew.
func (e *evaluator) addCut(mask bitgraph.Set) bool {
	for _, m := range e.cutPool {
		if bitgraph.SamePartition(m, mask, e.full) {
			return false
		}
	}
	e.cutPool = append(e.cutPool, mask.Clone())
	return true
}

// fullScore scalarizes the objective plus constraint penalties with a
// from-scratch recompute; lower is better for every objective. The
// annealing hot path uses searchCtx.score (the incremental equivalent);
// fullScore re-scores incumbents after pool growth and anchors the
// incremental/recompute cross-check tests.
func (e *evaluator) fullScore(s *bitgraph.Graph) float64 {
	total, unreachable, diam := s.HopStats()
	v := float64(unreachable) * penaltyDisconnected
	if e.cfg.MaxDiameter > 0 && diam > e.cfg.MaxDiameter && unreachable == 0 {
		v += float64(diam-e.cfg.MaxDiameter) * penaltyDiameter
	}
	poolBW := math.Inf(1)
	if e.cfg.Objective == SCOp || e.cfg.MinCutBW > 0 {
		poolBW = s.PoolMin(e.cutPool)
	}
	if e.cfg.MinCutBW > 0 && poolBW < e.cfg.MinCutBW {
		v += (e.cfg.MinCutBW - poolBW) * penaltyMinCut
	}
	switch e.cfg.Objective {
	case LatOp:
		v += float64(total)
	case SCOp:
		v += -poolBW*scopeCutScale + float64(total)
	case Weighted:
		wt, wUnreach := s.WeightedHops(e.cfg.Weights)
		v += wt + float64(wUnreach)*penaltyDisconnected
	}
	if e.linkCostMilli != nil {
		v += e.cfg.EnergyWeight * energyProxyOf(e.energyProxySum(s))
	}
	if e.cfg.RobustWeight > 0 {
		v += e.cfg.RobustWeight * float64(robustFragility(s.OutDeg, s.InDeg, s.PoolMinCross(e.cutPool)))
	}
	return v
}

// Fragility thresholds: a robust topology gives every router at least
// two exits and two entries, and crosses every pooled cut with at least
// two links per direction — any single link failure then leaves both
// the router and the cut connected.
const (
	robustMinDeg   = 2
	robustMinCross = 2
)

// robustFragility is the integer fragility of a link set: per-router
// degree shortfall below robustMinDeg plus the pool's min-crossing
// shortfall below robustMinCross. Each unit is one structural
// single-point-of-failure exposure. Additions can only shrink it and
// removals only grow it (degrees and crossings are monotone in the link
// set), which keeps the annealer's monotonicity fast paths valid with
// RobustWeight enabled.
func robustFragility(outDeg, inDeg []int, poolMinCross int) int {
	f := 0
	for _, d := range outDeg {
		if d < robustMinDeg {
			f += robustMinDeg - d
		}
	}
	for _, d := range inDeg {
		if d < robustMinDeg {
			f += robustMinDeg - d
		}
	}
	if poolMinCross < robustMinCross {
		f += robustMinCross - poolMinCross
	}
	return f
}

// cutTerms is the part of the score that depends on the pool minimum
// poolBW: the C7 shortfall penalty plus SCOp's bandwidth reward. Both
// only grow as poolBW falls, so cutTerms(after) - cutTerms(before) is
// the exact increase a link removal causes through the pool, up to the
// rounding of score's own summation order.
func (c *searchCtx) cutTerms(poolBW float64) float64 {
	cfg := &c.a.cfg
	v := 0.0
	if cfg.MinCutBW > 0 && poolBW < cfg.MinCutBW {
		v += (cfg.MinCutBW - poolBW) * penaltyMinCut
	}
	if cfg.Objective == SCOp {
		v -= poolBW * scopeCutScale
	}
	return v
}

// score is the incremental counterpart of evaluator.fullScore, reading
// the aggregates maintained by the search context's bitgraph.Eval. It
// must stay bit-identical to fullScore on the same state (pinned by
// TestIncrementalScoreMatchesRecompute).
func (c *searchCtx) score() float64 {
	cfg := &c.a.cfg
	ev := c.ev
	unreachable := ev.Unreachable()
	v := float64(unreachable) * penaltyDisconnected
	if cfg.MaxDiameter > 0 && unreachable == 0 {
		if diam := ev.Diameter(); diam > cfg.MaxDiameter {
			v += float64(diam-cfg.MaxDiameter) * penaltyDiameter
		}
	}
	poolBW := math.Inf(1)
	if cfg.Objective == SCOp || cfg.MinCutBW > 0 {
		poolBW = ev.PoolMin()
	}
	if cfg.MinCutBW > 0 && poolBW < cfg.MinCutBW {
		v += (cfg.MinCutBW - poolBW) * penaltyMinCut
	}
	switch cfg.Objective {
	case LatOp:
		v += float64(ev.Total())
	case SCOp:
		v += -poolBW*scopeCutScale + float64(ev.Total())
	case Weighted:
		wt, wUnreach := ev.WeightedTotal()
		v += wt + float64(wUnreach)*penaltyDisconnected
	}
	if c.a.eval.linkCostMilli != nil {
		v += cfg.EnergyWeight * energyProxyOf(ev.LinkCost())
	}
	if cfg.RobustWeight > 0 {
		g := ev.Graph()
		v += cfg.RobustWeight * float64(robustFragility(g.OutDeg, g.InDeg, ev.PoolMinCross()))
	}
	return v
}
