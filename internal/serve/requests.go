package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"netsmith/internal/exp"
	"netsmith/internal/expert"
	"netsmith/internal/fault"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
	"netsmith/internal/traffic"
)

// ---- synth ----

// SynthRequest is the body of a {"kind":"synth"} job (and of the
// deprecated POST /v1/synth alias). Zero values select the paper
// defaults (radix 4, asymmetric, fixed 60000x4 search budget).
type SynthRequest struct {
	Grid         string  `json:"grid"`      // "RxC", e.g. "4x5"
	Class        string  `json:"class"`     // small | medium | large
	Objective    string  `json:"objective"` // latop | scop | shufopt
	Radix        int     `json:"radix,omitempty"`
	Symmetric    bool    `json:"symmetric,omitempty"`
	MaxDiameter  int     `json:"max_diameter,omitempty"`
	MinCutBW     float64 `json:"min_cut_bw,omitempty"`
	EnergyWeight float64 `json:"energy_weight,omitempty"`
	RobustWeight float64 `json:"robust_weight,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	Iterations   int     `json:"iterations,omitempty"`
	Restarts     int     `json:"restarts,omitempty"`
	// Population >= 2 selects population-mode synthesis (evolution over
	// a pool of that many topologies); Generations is the number of
	// evolution rounds (default 8). See synth.Config.
	Population  int `json:"population,omitempty"`
	Generations int `json:"generations,omitempty"`
}

// SynthResult is a synth job's result payload.
type SynthResult struct {
	Topology    json.RawMessage `json:"topology"` // topo JSON (name, grid, links)
	Objective   float64         `json:"objective"`
	Bound       float64         `json:"bound"`
	Gap         float64         `json:"gap"`
	Optimal     bool            `json:"optimal"`
	EnergyProxy float64         `json:"energy_proxy,omitempty"`
	// CriticalLinks and Fragility are filled when the request priced
	// fragility (robust_weight > 0): single links whose loss disconnects
	// some pair, and the residual fragility score.
	CriticalLinks int     `json:"critical_links,omitempty"`
	Fragility     int     `json:"fragility,omitempty"`
	Links         int     `json:"links"`
	Diameter      int     `json:"diameter"`
	AvgHops       float64 `json:"avg_hops"`
}

func (req *SynthRequest) config() (synth.Config, error) {
	g, err := parseBoundedGrid(req.Grid)
	if err != nil {
		return synth.Config{}, err
	}
	if req.Iterations < 0 || req.Iterations > maxSynthIters {
		return synth.Config{}, fmt.Errorf("iterations %d outside [0, %d]", req.Iterations, maxSynthIters)
	}
	if req.Restarts < 0 || req.Restarts > maxSynthRestarts {
		return synth.Config{}, fmt.Errorf("restarts %d outside [0, %d]", req.Restarts, maxSynthRestarts)
	}
	if err := checkPopulation(req.Population, req.Generations, req.Iterations); err != nil {
		return synth.Config{}, err
	}
	// Statically invalid knobs must 400 at POST time, not fail the job
	// after consuming a queue slot.
	if req.Radix < 0 {
		return synth.Config{}, fmt.Errorf("negative radix %d", req.Radix)
	}
	if req.EnergyWeight < 0 {
		return synth.Config{}, fmt.Errorf("negative energy_weight %v", req.EnergyWeight)
	}
	if req.RobustWeight < 0 {
		return synth.Config{}, fmt.Errorf("negative robust_weight %v", req.RobustWeight)
	}
	if req.MaxDiameter < 0 || req.MinCutBW < 0 {
		return synth.Config{}, fmt.Errorf("negative constraint bound")
	}
	cl, err := layout.ParseClass(defaultStr(req.Class, "medium"))
	if err != nil {
		return synth.Config{}, err
	}
	cfg := synth.Config{
		Grid: g, Class: cl,
		Radix: req.Radix, Symmetric: req.Symmetric,
		MaxDiameter: req.MaxDiameter, MinCutBW: req.MinCutBW,
		EnergyWeight: req.EnergyWeight, RobustWeight: req.RobustWeight,
		Seed: req.Seed, Iterations: req.Iterations, Restarts: req.Restarts,
		Population: req.Population, Generations: req.Generations,
	}
	switch defaultStr(req.Objective, "latop") {
	case "latop":
		cfg.Objective = synth.LatOp
	case "scop":
		cfg.Objective = synth.SCOp
	case "shufopt":
		cfg.Objective = synth.Weighted
		cfg.Weights = traffic.Shuffle{N: g.N()}.WeightMatrix()
	default:
		return synth.Config{}, fmt.Errorf("unknown objective %q (want latop, scop or shufopt)", req.Objective)
	}
	return cfg, nil
}

func synthResult(res *synth.Result) (*SynthResult, error) {
	tj, err := json.Marshal(res.Topology)
	if err != nil {
		return nil, err
	}
	return &SynthResult{
		Topology:  tj,
		Objective: res.Objective, Bound: res.Bound, Gap: res.Gap,
		Optimal: res.Optimal, EnergyProxy: res.EnergyProxy,
		CriticalLinks: res.CriticalLinks, Fragility: res.Fragility,
		Links:    res.Topology.NumLinks(),
		Diameter: res.Topology.Diameter(),
		AvgHops:  res.Topology.AverageHops(),
	}, nil
}

// ExecuteSynth runs a synth request in-process against st, through the
// exact validation and cached-generation path the HTTP job runner
// uses. It backs the root-package Client's local mode, so local and
// remote execution cannot drift.
func ExecuteSynth(st *store.Store, req SynthRequest) (*SynthResult, bool, error) {
	cfg, err := req.config()
	if err != nil {
		return nil, false, err
	}
	res, hit, err := synth.CachedGenerate(st, cfg)
	if err != nil {
		return nil, false, err
	}
	payload, err := synthResult(res)
	return payload, hit, err
}

// ---- matrix ----

// MatrixRequest is the body of a {"kind":"matrix"} job (and of the
// deprecated POST /v1/matrix alias); it mirrors the netbench -matrix
// flags.
type MatrixRequest struct {
	Grid     string    `json:"grid"`               // "RxC"
	Class    string    `json:"class,omitempty"`    // synthesized-topology class
	Topos    []string  `json:"topos,omitempty"`    // "mesh" and/or "ns"; default mesh
	Patterns []string  `json:"patterns,omitempty"` // registry args; default uniform
	Rates    []float64 `json:"rates,omitempty"`    // default 0.02, 0.08, 0.14
	// Fidelity selects the cycle budgets: smoke, fast (default) or
	// full.
	Fidelity string `json:"fidelity,omitempty"`
	// Seed is the matrix base seed. Omitted means 42 — the
	// netbench -matrix default, so a bare HTTP request and a bare CLI
	// run share cache cells (an explicit 0 is honored as 0).
	Seed         *int64  `json:"seed,omitempty"`
	Energy       bool    `json:"energy,omitempty"`
	EnergyWeight float64 `json:"energy_weight,omitempty"`
	RobustWeight float64 `json:"robust_weight,omitempty"`
	// Faults lists fault-schedule registry args ("name" or
	// "name:key=val:..."), each added as a matrix axis entry alongside
	// the always-present fault-free baseline.
	Faults []string `json:"faults,omitempty"`
	// SynthIterations bounds "ns" topology synthesis (default 20000,
	// fixed 4 restarts; deterministic, hence cacheable).
	SynthIterations int `json:"synth_iterations,omitempty"`
	// SynthPopulation/SynthGenerations switch "ns" synthesis to
	// population mode (still deterministic and cacheable). Like the
	// synthesis budget, they are part of the ns topology's identity, so
	// CLI and HTTP runs must agree on them to share matrix cells.
	SynthPopulation  int `json:"synth_population,omitempty"`
	SynthGenerations int `json:"synth_generations,omitempty"`
	// Shards, when > 1, splits the matrix into that many shard leases
	// for cluster workers instead of executing locally (clamped to the
	// cell count; capped at 32). 0 defers to the server's configured
	// default (Config.ClusterShards); 1 forces local execution.
	Shards int `json:"shards,omitempty"`
}

// MatrixJobResult is a matrix job's result payload: the matrix itself
// plus the cache accounting the byte-identical JSON emission omits.
type MatrixJobResult struct {
	Matrix *sim.MatrixResult `json:"matrix"`
	// Stats reports the simulated/cached/persist-failure split (see
	// sim.MatrixStats; a nonzero StoreErrors means the matrix is
	// complete but some cells will re-simulate on the next request).
	// For cluster jobs Computed aggregates across shard workers and
	// CacheHits is the complement, so the split still sums to Cells.
	Stats         sim.MatrixStats `json:"stats"`
	SynthCacheHit bool            `json:"synth_cache_hit"` // true when no ns topology was searched
	// Shards is the shard count the job executed with (0 for a plain
	// local run).
	Shards int `json:"shards,omitempty"`
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// Request size caps. The bounded queue sheds load across jobs; these
// bound the work inside one accepted job, so a single well-formed POST
// cannot monopolize a worker for hours or exhaust memory.
const (
	maxGridRouters   = 1024
	maxSynthIters    = 1_000_000
	maxSynthRestarts = 64
	maxTopos         = 8
	maxRatePoints    = 64
	maxPatterns      = 64
	maxFaults        = 16
	maxShards        = 32
	maxPopulation    = 64
	maxGenerations   = 64
)

// checkPopulation validates population-mode knobs, including the total
// annealing budget population * (1 + generations) * iterations — a
// population job must not exceed what the restart caps already allow
// (maxSynthIters * maxSynthRestarts steps).
func checkPopulation(population, generations, iterations int) error {
	if population < 0 || population == 1 || population > maxPopulation {
		return fmt.Errorf("population %d outside {0, 2..%d}", population, maxPopulation)
	}
	if generations < 0 || generations > maxGenerations {
		return fmt.Errorf("generations %d outside [0, %d]", generations, maxGenerations)
	}
	if generations > 0 && population == 0 {
		return fmt.Errorf("generations %d needs population >= 2", generations)
	}
	if population > 0 {
		iters, gens := iterations, generations
		if iters == 0 {
			iters = 60000 // synth.Config default
		}
		if gens == 0 {
			gens = 8 // synth.Config default
		}
		if total := int64(population) * int64(1+gens) * int64(iters); total > int64(maxSynthIters)*int64(maxSynthRestarts) {
			return fmt.Errorf("population budget %d annealing steps over cap %d", total, int64(maxSynthIters)*int64(maxSynthRestarts))
		}
	}
	return nil
}

// parseBoundedGrid is layout.ParseGrid plus the router-count cap.
func parseBoundedGrid(s string) (*layout.Grid, error) {
	g, err := layout.ParseGrid(s)
	if err != nil {
		return nil, err
	}
	if g.N() > maxGridRouters {
		return nil, fmt.Errorf("grid %q has %d routers (cap %d)", s, g.N(), maxGridRouters)
	}
	return g, nil
}

// matrixPlan is the validated, executable form of a MatrixRequest.
type matrixPlan struct {
	grid      *layout.Grid
	class     layout.Class
	topos     []string
	factories []sim.PatternFactory
	faults    []sim.FaultFactory
	rates     []float64
	base      sim.Config
	seed      int64
	ew        float64
	rw        float64
	synthIter int
	synthPop  int
	synthGens int
}

// cellCount is the matrix cell total the plan will resolve — the
// denominator of job progress and the clamp on shard counts.
func (p *matrixPlan) cellCount() int {
	nF := len(p.faults)
	if nF == 0 {
		nF = 1
	}
	return len(p.topos) * len(p.factories) * nF * len(p.rates)
}

func (req *MatrixRequest) plan() (*matrixPlan, error) {
	g, err := parseBoundedGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	cl, err := layout.ParseClass(defaultStr(req.Class, "medium"))
	if err != nil {
		return nil, err
	}
	// Defaulting matters for cache sharing: a bare request must key its
	// cells exactly like a bare `netbench -matrix` run (seed 42).
	seed := int64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	p := &matrixPlan{grid: g, class: cl, seed: seed, ew: req.EnergyWeight, rw: req.RobustWeight}
	p.topos = req.Topos
	if len(p.topos) == 0 {
		p.topos = []string{"mesh"}
	}
	if len(p.topos) > maxTopos {
		return nil, fmt.Errorf("%d topologies over cap %d", len(p.topos), maxTopos)
	}
	for _, name := range p.topos {
		if name != "mesh" && name != "ns" {
			return nil, fmt.Errorf("unknown topology %q (want mesh or ns)", name)
		}
	}
	patterns := req.Patterns
	if len(patterns) == 0 {
		patterns = []string{"uniform"}
	}
	if len(patterns) > maxPatterns {
		return nil, fmt.Errorf("%d patterns over cap %d", len(patterns), maxPatterns)
	}
	env := traffic.GridEnv(g)
	reg := traffic.Default()
	for _, arg := range patterns {
		name, params, err := traffic.ParsePatternArg(strings.TrimSpace(arg))
		if err != nil {
			return nil, err
		}
		// Trace replay is CLI-only: over HTTP it would make the server
		// open client-chosen local file paths, and its cache key would
		// follow the file name, not the file content (netbench hashes
		// the trace bytes into the key; a path-keyed cell would serve
		// stale results after the file changes).
		if name == "trace" {
			return nil, fmt.Errorf("trace replay is not available over the API; use netbench -matrix -trace")
		}
		if _, err := reg.Build(name, env, params); err != nil {
			return nil, err
		}
		p.factories = append(p.factories, sim.RegistryFactory(reg, name, env, params))
	}
	p.rates = req.Rates
	if len(p.rates) == 0 {
		p.rates = []float64{0.02, 0.08, 0.14}
	}
	if len(p.rates) > maxRatePoints {
		return nil, fmt.Errorf("%d rates over cap %d", len(p.rates), maxRatePoints)
	}
	for _, r := range p.rates {
		if r <= 0 {
			return nil, fmt.Errorf("bad rate %g", r)
		}
	}
	// The shared presets keep the cycle budgets — part of every cell's
	// cache key — in lockstep with netbench -matrix.
	if err := sim.ApplyFidelity(&p.base, defaultStr(req.Fidelity, sim.FidelityFast)); err != nil {
		return nil, err
	}
	p.base.CollectEnergy = req.Energy
	if req.EnergyWeight < 0 {
		return nil, fmt.Errorf("negative energy_weight %v", req.EnergyWeight)
	}
	if req.RobustWeight < 0 {
		return nil, fmt.Errorf("negative robust_weight %v", req.RobustWeight)
	}
	if len(req.Faults) > maxFaults {
		return nil, fmt.Errorf("%d faults over cap %d", len(req.Faults), maxFaults)
	}
	if len(req.Faults) > 0 {
		// Same axis construction as netbench -faults: the fault-free
		// baseline leads, schedules are validated eagerly against the
		// grid's mesh, and duplicate canonical specs collapse.
		freg := fault.Default()
		mesh := expert.Mesh(g)
		p.faults = []sim.FaultFactory{sim.FaultRegistryFactory(freg, "none", nil)}
		seen := map[string]bool{p.faults[0].Name: true}
		for _, arg := range req.Faults {
			name, params, err := fault.ParseScheduleArg(strings.TrimSpace(arg))
			if err != nil {
				return nil, err
			}
			if _, err := freg.Build(name, mesh, params); err != nil {
				return nil, err
			}
			f := sim.FaultRegistryFactory(freg, name, params)
			if seen[f.Name] {
				continue
			}
			seen[f.Name] = true
			p.faults = append(p.faults, f)
		}
	}
	p.synthIter = req.SynthIterations
	if p.synthIter == 0 {
		// Match netbench -matrix exactly (fast: 20000, -full: 80000) —
		// the synthesis budget decides the ns topology, whose
		// fingerprint anchors every cell key, so a different default
		// here would stop "full" CLI and HTTP runs from sharing cells.
		p.synthIter = 20000
		if defaultStr(req.Fidelity, sim.FidelityFast) == sim.FidelityFull {
			p.synthIter = 80000
		}
	}
	if p.synthIter < 0 || p.synthIter > maxSynthIters {
		return nil, fmt.Errorf("synth_iterations %d outside [0, %d]", p.synthIter, maxSynthIters)
	}
	if err := checkPopulation(req.SynthPopulation, req.SynthGenerations, p.synthIter); err != nil {
		return nil, err
	}
	p.synthPop, p.synthGens = req.SynthPopulation, req.SynthGenerations
	if req.Shards < 0 || req.Shards > maxShards {
		return nil, fmt.Errorf("shards %d outside [0, %d]", req.Shards, maxShards)
	}
	return p, nil
}

// run builds the setups through the builder shared with
// netbench -matrix (exp.MatrixSetups: mesh expert-routed, ns via
// cached synthesis) and runs the store-backed matrix. A zero shard
// executes (or merges) the full matrix; an enabled shard simulates
// only owned cells and surfaces sim.IncompleteError when other shards'
// cells are still pending — for a cluster worker that error IS
// success. synthAllCached reports whether every "ns" topology came
// from the store.
func (p *matrixPlan) run(ctx context.Context, st *store.Store, shard sim.Shard, progress func(done, total int)) (res *sim.MatrixResult, synthAllCached bool, err error) {
	setups, synthAllCached, err := exp.MatrixSetups(p.topos, p.grid, p.class, st, p.ew, p.rw, p.seed, p.synthIter, p.synthPop, p.synthGens)
	if err != nil {
		return nil, false, err
	}
	res, err = sim.RunMatrix(sim.MatrixConfig{
		Setups: setups, Patterns: p.factories, Faults: p.faults,
		Rates: p.rates,
		Base:  p.base, Seed: p.seed, Store: st,
		Shard: shard, Ctx: ctx, Progress: progress,
	})
	return res, synthAllCached, err
}

// ExecuteMatrix runs a matrix request in-process against st (full
// matrix, no sharding), through the same validation and execution path
// as the HTTP job runner. ctx cancels with cell granularity; progress
// may be nil. It backs the root-package Client's local mode.
func ExecuteMatrix(ctx context.Context, st *store.Store, req MatrixRequest, progress func(done, total int)) (*MatrixJobResult, bool, error) {
	plan, err := req.plan()
	if err != nil {
		return nil, false, err
	}
	res, synthCached, err := plan.run(ctx, st, sim.Shard{}, progress)
	if err != nil {
		return nil, false, err
	}
	out := &MatrixJobResult{Matrix: res, Stats: res.Stats, SynthCacheHit: synthCached}
	return out, res.Stats.Computed == 0 && synthCached, nil
}

// ---- pareto ----

// maxParetoPoints caps the sweep's weight grid (|energy_weights| x
// |robust_weights|): each point is a full synthesis plus a matrix row.
const maxParetoPoints = 64

// ParetoRequest is the body of a {"kind":"pareto"} job (and of POST
// /v1/pareto). It sweeps the synthesis weight grid, measures every
// candidate, and returns the dominated-point-free frontier with
// fleet-level energy accounting. Synthesis knobs default exactly like
// matrix "ns" topologies (seed 42, 20000 iterations fast / 80000 full),
// so a pareto sweep and a matrix run over the same store share
// synthesis results and cells.
type ParetoRequest struct {
	Grid  string `json:"grid"`            // "RxC"
	Class string `json:"class,omitempty"` // small | medium | large
	// EnergyWeights/RobustWeights span the sweep grid; empty defaults to
	// exp.DefaultEnergyWeights and {0}.
	EnergyWeights []float64 `json:"energy_weights,omitempty"`
	RobustWeights []float64 `json:"robust_weights,omitempty"`
	// Rates is the measured offered-rate grid (positive, strictly
	// ascending; default exp.DefaultParetoRates).
	Rates []float64 `json:"rates,omitempty"`
	// Fidelity selects the cycle budgets: smoke, fast (default) or full.
	Fidelity string `json:"fidelity,omitempty"`
	// Seed is the synthesis/matrix base seed; omitted means 42 (matrix
	// parity — an explicit 0 is honored as 0).
	Seed *int64 `json:"seed,omitempty"`
	// SynthIterations bounds each point's synthesis (default 20000, or
	// 80000 at full fidelity — matrix "ns" parity).
	SynthIterations  int `json:"synth_iterations,omitempty"`
	SynthPopulation  int `json:"synth_population,omitempty"`
	SynthGenerations int `json:"synth_generations,omitempty"`
	// Shards, when > 1, splits the sweep points into cluster leases
	// (clamped to the point count; capped at 32). 0 defers to the
	// server default; 1 forces local execution.
	Shards int `json:"shards,omitempty"`
}

// ParetoJobResult is a pareto job's result payload: the frontier plus
// the run's cache accounting (excluded from the cached artifact).
type ParetoJobResult struct {
	Frontier *exp.Frontier   `json:"frontier"`
	Stats    exp.ParetoStats `json:"stats"`
	// Shards is the shard count the job executed with (0 for a plain
	// local run).
	Shards int `json:"shards,omitempty"`
}

// paretoPlan is the validated, executable form of a ParetoRequest.
type paretoPlan struct {
	cfg    exp.ParetoConfig
	points int // resolved weight-grid size
}

// units is the job's progress denominator (sweep units: one per
// synthesis point plus an equal measurement share).
func (p *paretoPlan) units() int { return 2 * p.points }

func (req *ParetoRequest) plan() (*paretoPlan, error) {
	g, err := parseBoundedGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	cl, err := layout.ParseClass(defaultStr(req.Class, "medium"))
	if err != nil {
		return nil, err
	}
	seed := int64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	fidelity := defaultStr(req.Fidelity, sim.FidelityFast)
	// Matrix "ns" parity: the synthesis budget decides each candidate
	// topology, whose fingerprint anchors its cells, so pareto and
	// matrix front ends must agree on the default or stop sharing work.
	synthIter := req.SynthIterations
	if synthIter == 0 {
		synthIter = 20000
		if fidelity == sim.FidelityFull {
			synthIter = 80000
		}
	}
	if synthIter < 0 || synthIter > maxSynthIters {
		return nil, fmt.Errorf("synth_iterations %d outside [0, %d]", synthIter, maxSynthIters)
	}
	if err := checkPopulation(req.SynthPopulation, req.SynthGenerations, synthIter); err != nil {
		return nil, err
	}
	if len(req.Rates) > maxRatePoints {
		return nil, fmt.Errorf("%d rates over cap %d", len(req.Rates), maxRatePoints)
	}
	if req.Shards < 0 || req.Shards > maxShards {
		return nil, fmt.Errorf("shards %d outside [0, %d]", req.Shards, maxShards)
	}
	cfg := exp.ParetoConfig{
		Base:          synth.MatrixNSConfig(g, cl, 0, 0, seed, synthIter, req.SynthPopulation, req.SynthGenerations),
		EnergyWeights: req.EnergyWeights,
		RobustWeights: req.RobustWeights,
		Rates:         req.Rates,
		Fidelity:      fidelity,
	}
	// Points validates the grids, rates and fidelity through the exact
	// normalization ParetoSweep will apply — statically invalid knobs
	// 400 at POST time instead of failing the job in the queue.
	n, err := cfg.Points()
	if err != nil {
		return nil, err
	}
	if n > maxParetoPoints {
		return nil, fmt.Errorf("%d sweep points over cap %d", n, maxParetoPoints)
	}
	return &paretoPlan{cfg: cfg, points: n}, nil
}

// run executes the sweep (or one shard of it) against st.
func (p *paretoPlan) run(ctx context.Context, st *store.Store, shard sim.Shard, progress func(done, total int)) (*exp.Frontier, error) {
	cfg := p.cfg
	cfg.Store, cfg.Ctx, cfg.Progress, cfg.Shard = st, ctx, progress, shard
	return exp.ParetoSweep(cfg)
}

// shardRunner adapts the plan to the cluster lease loop.
func (p *paretoPlan) shardRunner() shardRunner {
	return func(ctx context.Context, st *store.Store, shard sim.Shard, progress func(done, total int)) (*shardReport, error) {
		fr, err := p.run(ctx, st, shard, progress)
		return paretoShardOutcome(fr, err)
	}
}

// shardRunner adapts the matrix plan to the same lease loop.
func (p *matrixPlan) shardRunner() shardRunner {
	return func(ctx context.Context, st *store.Store, shard sim.Shard, progress func(done, total int)) (*shardReport, error) {
		res, synthCached, err := p.run(ctx, st, shard, progress)
		stats, ok := shardOutcome(res, err)
		if !ok {
			return nil, err
		}
		return &shardReport{stats: stats, synthCached: synthCached}, nil
	}
}

// paretoCacheHit reports whether a sweep did no new work: the frontier
// itself was cached, or every synthesis and every cell hit the store.
func paretoCacheHit(st exp.ParetoStats) bool {
	return st.FrontierCached || (st.Synthesized == 0 && st.CellsComputed == 0)
}

// ExecutePareto runs a pareto request in-process against st (full
// sweep, no sharding), through the same validation and execution path
// as the HTTP job runner. It backs the root-package Client's local
// mode, so served and in-process frontiers are byte-identical.
func ExecutePareto(ctx context.Context, st *store.Store, req ParetoRequest, progress func(done, total int)) (*ParetoJobResult, bool, error) {
	plan, err := req.plan()
	if err != nil {
		return nil, false, err
	}
	fr, err := plan.run(ctx, st, sim.Shard{}, progress)
	if err != nil {
		return nil, false, err
	}
	out := &ParetoJobResult{Frontier: fr, Stats: fr.Stats}
	return out, paretoCacheHit(fr.Stats), nil
}

// ---- job-creating handlers ----

// decodeStrict decodes a body holding exactly one JSON value into v:
// unknown fields, a second value or trailing garbage are errors.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if dec.Decode(&extra) != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return nil, false
	}
	return body, true
}

// handlePostJob is POST /v1/jobs: one tagged body for every job kind —
// {"kind":"synth"|"matrix", "priority":N, ...kind-specific fields}.
func (s *Server) handlePostJob(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	kindRaw, ok := fields["kind"]
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_request", `missing "kind" (want "synth", "matrix" or "pareto")`)
		return
	}
	var kind string
	if err := json.Unmarshal(kindRaw, &kind); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad kind: %v", err)
		return
	}
	priority := 0
	if pRaw, ok := fields["priority"]; ok {
		if err := json.Unmarshal(pRaw, &priority); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad priority: %v", err)
			return
		}
		if priority < -100 || priority > 100 {
			writeError(w, http.StatusBadRequest, "bad_request", "priority %d outside [-100, 100]", priority)
			return
		}
	}
	// The rest of the envelope is the kind-specific request, decoded
	// strictly so typos fail loudly instead of silently running a
	// default job.
	delete(fields, "kind")
	delete(fields, "priority")
	rest, err := json.Marshal(fields)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	switch kind {
	case "synth":
		var req SynthRequest
		if err := decodeStrict(rest, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad synth request: %v", err)
			return
		}
		s.acceptSynth(w, req, priority)
	case "matrix":
		var req MatrixRequest
		if err := decodeStrict(rest, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad matrix request: %v", err)
			return
		}
		s.acceptMatrix(w, req, priority)
	case "pareto":
		var req ParetoRequest
		if err := decodeStrict(rest, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad pareto request: %v", err)
			return
		}
		s.acceptPareto(w, req, priority)
	default:
		writeError(w, http.StatusBadRequest, "bad_request", `unknown kind %q (want "synth", "matrix" or "pareto")`, kind)
	}
}

// handleParetoPost is POST /v1/pareto: a first-class single-kind
// entrypoint (priority 0) over the unified job path.
func (s *Server) handleParetoPost(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req ParetoRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	s.acceptPareto(w, req, 0)
}

// handleSynthAlias keeps the pre-v1-jobs POST /v1/synth surface alive
// as a thin shim over the unified path (priority 0).
func (s *Server) handleSynthAlias(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Link", `</v1/jobs>; rel="successor-version"`)
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req SynthRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	s.acceptSynth(w, req, 0)
}

// handleMatrixAlias is the deprecated POST /v1/matrix shim.
func (s *Server) handleMatrixAlias(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Link", `</v1/jobs>; rel="successor-version"`)
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req MatrixRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	s.acceptMatrix(w, req, 0)
}

func (s *Server) acceptSynth(w http.ResponseWriter, req SynthRequest, priority int) {
	cfg, err := req.config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	j, qerr := s.enqueue("synth", priority, func(ctx context.Context, _ *job) (any, bool, error) {
		// Synthesis has no internal cancellation points; honor a
		// cancel that lands while the job waits in the queue.
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		res, hit, err := synth.CachedGenerate(s.cfg.Store, cfg)
		if err != nil {
			return nil, false, err
		}
		s.noteSynth(hit)
		payload, err := synthResult(res)
		return payload, hit, err
	})
	if qerr != nil {
		writeAPIError(w, qerr)
		return
	}
	s.mu.Lock()
	v := s.view(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) acceptMatrix(w http.ResponseWriter, req MatrixRequest, priority int) {
	plan, err := req.plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	cells := plan.cellCount()
	shards := req.Shards
	if shards == 0 {
		shards = s.cfg.ClusterShards
	}
	if shards > cells {
		shards = cells // a lease with zero owned cells is pure overhead
	}
	var run runFunc
	if shards > 1 {
		// Canonical re-marshal (not the client's raw bytes) so every
		// worker decodes exactly the fields the coordinator validated.
		reqJSON, merr := json.Marshal(req)
		if merr != nil {
			writeError(w, http.StatusInternalServerError, "internal", "%v", merr)
			return
		}
		run = s.clusterMatrixRun(plan, reqJSON, shards)
	} else {
		run = s.localMatrixRun(plan)
	}
	j, qerr := s.enqueue("matrix", priority, run)
	if qerr != nil {
		writeAPIError(w, qerr)
		return
	}
	s.setProgress(j, 0, cells)
	s.mu.Lock()
	v := s.view(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) acceptPareto(w http.ResponseWriter, req ParetoRequest, priority int) {
	plan, err := req.plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	shards := req.Shards
	if shards == 0 {
		shards = s.cfg.ClusterShards
	}
	if shards > plan.points {
		shards = plan.points // a lease owning zero sweep points is pure overhead
	}
	var run runFunc
	if shards > 1 {
		// Canonical re-marshal (not the client's raw bytes) so every
		// worker decodes exactly the fields the coordinator validated.
		reqJSON, merr := json.Marshal(req)
		if merr != nil {
			writeError(w, http.StatusInternalServerError, "internal", "%v", merr)
			return
		}
		run = s.clusterParetoRun(plan, reqJSON, shards)
	} else {
		run = s.localParetoRun(plan)
	}
	j, qerr := s.enqueue("pareto", priority, run)
	if qerr != nil {
		writeAPIError(w, qerr)
		return
	}
	s.setProgress(j, 0, plan.units())
	s.mu.Lock()
	v := s.view(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

// localParetoRun executes the whole sweep in-process (the single-node
// path).
func (s *Server) localParetoRun(plan *paretoPlan) runFunc {
	return func(ctx context.Context, j *job) (any, bool, error) {
		start := time.Now()
		fr, err := plan.run(ctx, s.cfg.Store, sim.Shard{}, func(done, total int) {
			s.setProgress(j, done, total)
		})
		if err != nil {
			return nil, false, err
		}
		s.notePareto(fr, fr.Stats, time.Since(start))
		out := ParetoJobResult{Frontier: fr, Stats: fr.Stats}
		return out, paretoCacheHit(fr.Stats), nil
	}
}

// localMatrixRun executes the whole matrix in-process (the
// single-node path).
func (s *Server) localMatrixRun(plan *matrixPlan) runFunc {
	return func(ctx context.Context, j *job) (any, bool, error) {
		start := time.Now()
		res, synthCached, err := plan.run(ctx, s.cfg.Store, sim.Shard{}, func(done, total int) {
			s.setProgress(j, done, total)
		})
		if err != nil {
			return nil, false, err
		}
		s.noteMatrix(res.Stats, time.Since(start))
		out := MatrixJobResult{Matrix: res, Stats: res.Stats, SynthCacheHit: synthCached}
		return out, res.Stats.Computed == 0 && synthCached, nil
	}
}
