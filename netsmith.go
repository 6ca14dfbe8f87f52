package netsmith

import (
	"netsmith/internal/exp"
	"netsmith/internal/expert"
	"netsmith/internal/fault"
	"netsmith/internal/layout"
	"netsmith/internal/power"
	"netsmith/internal/route"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
	"netsmith/internal/vc"
)

// Re-exported core types. These aliases form the public API surface;
// the implementation lives in internal packages.
type (
	// Grid is a physical router placement.
	Grid = layout.Grid
	// Class is a Kite-taxonomy link-length budget.
	Class = layout.Class
	// Topology is a directed NoI topology.
	Topology = topo.Topology
	// Cut is a two-way partition with its bandwidth.
	Cut = topo.Cut
	// Result is a synthesis outcome (topology + bound + gap).
	Result = synth.Result
	// ProgressPoint samples solver progress (Figure 5 style).
	ProgressPoint = synth.ProgressPoint
	// Routing is a per-flow shortest-path table.
	Routing = route.Routing
	// VCAssignment maps flows to deadlock-free VC layers.
	VCAssignment = vc.Assignment
	// Network bundles topology, routing and VCs, ready to simulate.
	Network = sim.Setup
	// SweepResult is a latency-vs-injection curve with saturation.
	SweepResult = sim.SweepResult
	// Pattern is a synthetic traffic pattern. Implementers supply
	// Originates too: the static, rng-free answer to whether a source
	// ever injects, which the simulator's per-node throughput reads.
	Pattern = traffic.Pattern
	// Objective selects what Generate optimizes.
	Objective = synth.Objective
	// SimConfig parameterizes one simulation run (cycle budgets, VC and
	// buffer geometry); used as the Base of a MatrixConfig.
	SimConfig = sim.Config
	// MatrixConfig drives a {topology x pattern x rate} scenario matrix.
	MatrixConfig = sim.MatrixConfig
	// MatrixResult is a scenario matrix outcome (per-curve points plus
	// zero-load latency and saturation throughput).
	MatrixResult = sim.MatrixResult
	// PatternFactory names a workload and builds fresh instances of it.
	PatternFactory = sim.PatternFactory
	// EnergyReport is a run's measured-energy outcome: raw activity
	// counters plus their picojoule conversion (set SimConfig's
	// CollectEnergy, or use RunEnergy).
	EnergyReport = sim.EnergyReport
	// PowerModel holds the 22nm technology constants shared by the
	// analytic estimate and the measured conversion.
	PowerModel = power.Model
	// PowerReport is the analytic power/area estimate (paper Figure 9).
	PowerReport = power.Report
	// Store is a content-addressed on-disk result cache (OpenStore);
	// attach it to MatrixConfig.Store for cached, resumable matrix runs
	// or pass it to GenerateCached for cached synthesis.
	Store = store.Store
	// Shard deterministically partitions a matrix's cells for
	// distributed execution (MatrixConfig.Shard); see ParseShard for
	// the "i/n" CLI form.
	Shard = sim.Shard
	// MatrixStats reports a store-backed matrix run's simulated/cached
	// cell split (MatrixResult.Stats).
	MatrixStats = sim.MatrixStats
	// IncompleteError is returned by RunMatrix when a sharded run has
	// persisted its own cells but other shards' cells are not yet in
	// the store.
	IncompleteError = sim.IncompleteError
	// FaultSchedule is a deterministic timeline of link/router failures
	// and recoveries; attach to SimConfig.FaultSchedule or run a fault
	// axis with MatrixConfig.Faults.
	FaultSchedule = fault.Schedule
	// FaultEvent is one failure or recovery in a schedule.
	FaultEvent = fault.Event
	// FaultFactory names a fault schedule and builds it per topology for
	// a matrix's fault axis (MatrixConfig.Faults).
	FaultFactory = sim.FaultFactory
	// SynthConfig is the resolved solver configuration — the type of
	// ParetoConfig.Base. Build one from the public surface with
	// Options.SynthConfig.
	SynthConfig = synth.Config
	// ParetoConfig parameterizes a Pareto-frontier sweep (ParetoSweep):
	// a base synthesis config plus the EnergyWeight/RobustWeight grids,
	// the measured rate grid and the sim fidelity.
	ParetoConfig = exp.ParetoConfig
	// Frontier is a sweep's dominated-point-free artifact: surviving
	// points in sweep order plus the fleet-level energy aggregate.
	Frontier = exp.Frontier
	// FrontierPoint is one surviving sweep point (synthesized topology +
	// measured latency/saturation/power split).
	FrontierPoint = exp.ParetoPoint
	// FleetEnergy is the sweep-level PUE-style aggregate: idle vs.
	// active power shares and mean energy per delivered flit.
	FleetEnergy = exp.FleetEnergy
	// ParetoStats reports what a sweep actually did (synthesized vs.
	// cached points and cells; FrontierCached for a warm-frontier hit).
	ParetoStats = exp.ParetoStats
	// ParetoIncompleteError is returned by a sharded sweep whose owned
	// points are persisted but whose frontier awaits other shards.
	ParetoIncompleteError = exp.ParetoIncompleteError
)

// Link-length classes (small (1,1), medium (2,0), large (2,1)).
const (
	Small  = layout.Small
	Medium = layout.Medium
	Large  = layout.Large
)

// Objectives.
const (
	// LatOp minimizes average hop count.
	LatOp = synth.LatOp
	// SCOp maximizes sparsest-cut bandwidth.
	SCOp = synth.SCOp
	// PatternOp minimizes traffic-weighted hops (set Options.Weights).
	PatternOp = synth.Weighted
)

// Paper-standard grids, plus a beyond-paper scalability configuration.
var (
	// Grid4x5 is the 20-router interposer layout.
	Grid4x5 = layout.Grid4x5
	// Grid6x5 is the 30-router layout.
	Grid6x5 = layout.Grid6x5
	// Grid8x6 is the 48-router scalability layout.
	Grid8x6 = layout.Grid8x6
	// Grid10x10 is the 100-router scalability layout. Synthesis has no
	// 64-router cap: Generate accepts any NewGrid(rows, cols).
	Grid10x10 = layout.Grid10x10
)

// NewGrid returns a rows x cols router placement. Any size is accepted;
// grids beyond 64 routers use the synthesizer's multi-word bitset path.
func NewGrid(rows, cols int) *Grid { return layout.NewGrid(rows, cols) }

// Options parameterizes topology generation. Zero values select paper
// defaults (radix 4, asymmetric links allowed).
type Options struct {
	Grid        *Grid
	Class       Class
	Objective   Objective
	Radix       int
	Symmetric   bool
	MaxDiameter int
	MinCutBW    float64
	Weights     [][]float64 // for PatternOp
	// EnergyWeight > 0 adds the energy-proxy term (wire dynamic +
	// per-port leakage) to the synthesis objective; the chosen topology's
	// proxy value is reported in Result.EnergyProxy.
	EnergyWeight float64
	// RobustWeight > 0 adds the fragility term (degree slack below 2
	// plus pooled min-cut slack below 2) to the objective and runs the
	// post-anneal critical-link oracle; the chosen topology's residual
	// exposure is reported in Result.CriticalLinks / Result.Fragility.
	RobustWeight float64
	Seed         int64
	// Iterations and Restarts are the search's step budget (zero
	// selects the defaults, 60000 steps x 4 restarts). Every run is
	// deterministic and cacheable.
	Iterations int
	Restarts   int
	// Population >= 2 switches the search to population mode: a pool
	// of Population topologies evolved for Generations rounds (default
	// 8) of tournament crossover + anneal-burst mutation, elitist-merged
	// deterministically. Total budget is
	// Population*(1+Generations)*Iterations annealing steps. Generation
	// counts require Population; Population 1 is invalid.
	Population  int
	Generations int
	Progress    func(ProgressPoint)
}

// synthConfig maps the public Options onto the solver config — the one
// translation shared by Generate and GenerateCached, so the cached and
// uncached paths cannot drift.
func (o Options) synthConfig() synth.Config {
	return synth.Config{
		Grid: o.Grid, Class: o.Class, Objective: o.Objective,
		Radix: o.Radix, Symmetric: o.Symmetric, MaxDiameter: o.MaxDiameter,
		MinCutBW: o.MinCutBW, Weights: o.Weights, EnergyWeight: o.EnergyWeight,
		RobustWeight: o.RobustWeight,
		Seed:         o.Seed, Iterations: o.Iterations, Restarts: o.Restarts,
		Progress:   o.Progress,
		Population: o.Population, Generations: o.Generations,
	}
}

// SynthConfig resolves the Options into the solver configuration that
// ParetoSweep expects as ParetoConfig.Base — the exact translation
// Generate and GenerateCached use, so a sweep's per-point synthesis
// cache entries are shared with direct GenerateCached calls. The
// sweep requires zero EnergyWeight/RobustWeight: the sweep grids set
// the weights per point.
func (o Options) SynthConfig() SynthConfig { return o.synthConfig() }

// Generate discovers a topology for the given options.
func Generate(o Options) (*Result, error) { return synth.Generate(o.synthConfig()) }

// Baseline returns a named expert-designed or prior-synthesis topology
// for the grid; see BaselineNames.
func Baseline(name string, g *Grid) (*Topology, error) { return expert.Get(name, g) }

// BaselineNames lists available baselines for a grid.
func BaselineNames(g *Grid) []string { return expert.Names(g) }

// Mesh returns the standard 2D mesh for a grid.
func Mesh(g *Grid) *Topology { return expert.Mesh(g) }

// FoldedTorus returns the folded torus for a grid.
func FoldedTorus(g *Grid) *Topology { return expert.FoldedTorus(g) }

// MCLB computes minimum-maximum-channel-load shortest-path routing.
func MCLB(t *Topology, seed int64) (*Routing, error) {
	return route.MCLB(t, route.MCLBOptions{Seed: seed})
}

// NDBT computes the expert-topology no-double-back-turns routing.
func NDBT(t *Topology, seed int64) (*Routing, error) { return route.NDBT(t, seed) }

// AssignVCs partitions routed flows into deadlock-free VC layers and
// verifies the result.
func AssignVCs(r *Routing, seed int64) (*VCAssignment, error) {
	a, err := vc.Assign(r, vc.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := a.Verify(r); err != nil {
		return nil, err
	}
	return a, nil
}

// Prepare builds MCLB routing plus verified VC assignment for a
// topology (NetSmith's standard pipeline).
func Prepare(t *Topology) (*Network, error) { return sim.Prepare(t, sim.UseMCLB, 1) }

// PrepareNDBT is Prepare with the expert heuristic routing.
func PrepareNDBT(t *Topology) (*Network, error) { return sim.Prepare(t, sim.UseNDBT, 1) }

// UniformTraffic returns uniform-random all-to-all traffic over n nodes.
func UniformTraffic(n int) Pattern { return traffic.Uniform{N: n} }

// ShuffleTraffic returns the gem5 shuffle permutation over n nodes.
func ShuffleTraffic(n int) Pattern { return traffic.Shuffle(n) }

// MemoryTraffic returns core-to-MC request/reply traffic for a grid.
func MemoryTraffic(g *Grid) Pattern {
	return traffic.NewMemory(g.CoreRouters(), g.MemoryControllerRouters())
}

// ShuffleWeights returns the shuffle demand matrix for PatternOp
// synthesis.
func ShuffleWeights(n int) [][]float64 { return traffic.Shuffle(n).WeightMatrix() }

// PatternNames lists the workload registry's built-in traffic patterns
// (uniform, shuffle, memory, transpose, bitcomp, bitrev, tornado,
// hotspot, bursty). Trace replay is not a registry pattern: it is
// MatrixJob.Trace, keyed by the trace's content.
func PatternNames() []string { return traffic.Default().Names() }

// BuildPattern constructs a fresh instance of a registered pattern for a
// grid. params may be nil; see the registry's ParamSpecs (e.g. hotspot
// takes "weight" and "hot", bursty takes "base", "ponoff", "poffon").
func BuildPattern(name string, g *Grid, params map[string]string) (Pattern, error) {
	return traffic.Default().Build(name, traffic.GridEnv(g), traffic.Params(params))
}

// PatternFactoryFor returns a RunMatrix factory for a registered pattern.
func PatternFactoryFor(name string, g *Grid, params map[string]string) PatternFactory {
	return sim.RegistryFactory(traffic.Default(), name, traffic.GridEnv(g), traffic.Params(params))
}

// FaultNames lists the fault-schedule registry's built-in generators
// (none, klinks, krouters, randlinks, list).
func FaultNames() []string { return fault.Default().Names() }

// BuildFaultSchedule constructs a registered fault schedule against a
// topology. params may be nil; see the registry's ParamSpecs (e.g.
// klinks takes "k", "seed", "at", "until").
func BuildFaultSchedule(name string, t *Topology, params map[string]string) (*FaultSchedule, error) {
	return fault.Default().Build(name, t, fault.Params(params))
}

// ParseFaultArg splits the CLI form "name:key=val:..." used by
// netbench -faults into a registry name and parameter map.
func ParseFaultArg(arg string) (name string, params map[string]string, err error) {
	name, p, err := fault.ParseScheduleArg(arg)
	return name, p, err
}

// FaultFactoryFor returns a RunMatrix fault-axis factory for a
// registered schedule generator; the factory rebuilds the schedule per
// topology, so generators that draw from the topology (klinks,
// krouters, randlinks) adapt to each matrix topology.
func FaultFactoryFor(name string, params map[string]string) FaultFactory {
	return sim.FaultRegistryFactory(fault.Default(), name, fault.Params(params))
}

// RunMatrix simulates every {topology x pattern x rate} cell of a
// scenario matrix on a bounded worker pool. Results are deterministic
// for a given config at any GOMAXPROCS; cmd/netbench -matrix is the CLI
// front end.
//
// With MatrixConfig.Store set, cells are content-addressed: cached
// cells are returned without simulating (bit-identical to a fresh
// run), fresh cells are persisted, and an interrupted run resumed over
// the same store completes from where it stopped. With
// MatrixConfig.Shard enabled, only the owned subset of cells is
// simulated; RunMatrix returns *IncompleteError until every shard has
// run against the shared store, after which the assembled matrix is
// byte-identical to an unsharded run.
func RunMatrix(c MatrixConfig) (*MatrixResult, error) { return sim.RunMatrix(c) }

// OpenStore creates (if needed) and opens a content-addressed result
// store rooted at dir. Stores are safe for concurrent use and may be
// shared between processes (matrix shards on different machines can
// point at one directory over a shared filesystem). Cached entries are
// invalidated wholesale when the store schema version changes.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// ParseShard parses the "i/n" shard notation used by the CLIs (e.g.
// "0/2" is the first of two shards); "" means unsharded.
func ParseShard(arg string) (Shard, error) { return sim.ParseShard(arg) }

// GenerateCached is Generate behind a result store: repeated calls
// with the same Options return the previously discovered topology
// without searching. The bool reports a cache hit; cached results
// carry no solver Trace. A nil store falls through to Generate.
func GenerateCached(st *Store, o Options) (*Result, bool, error) {
	return synth.CachedGenerate(st, o.synthConfig())
}

// ParetoSweep runs a Pareto-frontier sweep: one cache-first synthesis
// per (EnergyWeight, RobustWeight) grid point, a matrix measurement of
// every distinct candidate, exact non-domination pruning, and
// fleet-level energy aggregation. Deterministic — same config, same
// frontier bytes, at any GOMAXPROCS, warm or cold store — and cached
// wholesale under a canonical pareto key when c.Store is set. See
// Client.Pareto for the served/remote form of the same sweep.
func ParetoSweep(c ParetoConfig) (*Frontier, error) { return exp.ParetoSweep(c) }

// Sweep runs a latency-vs-injection sweep for a prepared network under a
// pattern. rates nil selects the standard grid; fast trades fidelity for
// runtime.
func Sweep(n *Network, p Pattern, rates []float64, fast bool, seed int64) (*SweepResult, error) {
	return n.Curve(p, rates, fast, seed)
}

// SweepUniform is Sweep with uniform-random traffic.
func SweepUniform(n *Network, rates []float64, seed int64) (*SweepResult, error) {
	return n.Curve(traffic.Uniform{N: n.Topo.N()}, rates, true, seed)
}

// Default22nm returns the calibrated 22nm technology constants used by
// both the analytic power model and the measured-energy conversion.
func Default22nm() PowerModel { return power.Default22nm() }

// AnalyzePower is the analytic power/area estimate for a prepared
// network at a uniform offered load (packets/node/cycle) — the model
// behind the paper's Figure 9.
func AnalyzePower(n *Network, rate float64, m PowerModel) PowerReport {
	return power.Analyze(n.Topo, n.Routing, rate, m)
}

// RunEnergy simulates a prepared network under a pattern with activity
// counters enabled and returns the measured-energy report alongside the
// run result. cfg-level control (cycle budgets) is available through
// SimConfig.CollectEnergy with RunMatrix or sim.Run.
func RunEnergy(n *Network, p Pattern, rate float64, seed int64) (*sim.Result, *EnergyReport, error) {
	res, err := sim.Run(sim.Config{
		Topo: n.Topo, Routing: n.Routing, VC: n.VC,
		Pattern: p, InjectionRate: rate, Seed: seed,
		CollectEnergy: true,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, res.Energy, nil
}
