package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
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

// ---- the kind table ----

// plan is the validated, executable form of one job request. Every
// execution path runs it: a served local job, an in-process Execute*
// call and a cluster job's final merge all call finish, and a shard
// lease (remote worker or coordinator self-work) calls shard.
type plan interface {
	// units is the job's progress denominator; 0 for a plan that never
	// shards.
	units() int
	// shards resolves the job's shard count from the request's and the
	// server default def; below 2 the job runs locally.
	shards(def int) int
	// shard runs one slice cache-first into st. Finishing the slice
	// while other shards are still pending is success.
	shard(ctx context.Context, st *store.Store, sh sim.Shard, progress func(done, total int)) (*shardReport, error)
	// shardDone is the progress a completed shard's cell stats account
	// for; 0 when the plan's units are not cells, so the shard's last
	// heartbeat stands.
	shardDone(st sim.MatrixStats) int
	// finish runs the job cache-first over st and folds the shard tally
	// into its stats; the zero tally is a local run. Served jobs pass the
	// zero shard, which runs the whole job; an enabled shard (a CLI
	// -shard run) returns the plan's incomplete-shard error until the
	// store holds every other shard's work. note charges the run to
	// /metrics and is called under Server.mu.
	finish(ctx context.Context, st *store.Store, sh sim.Shard, progress func(done, total int), tally shardTally) (out any, hit bool, note func(*serverStats), err error)
}

// kinds is the job-kind table: each entry strictly decodes a request
// body of its kind and validates it into a plan, without running it.
var kinds = map[string]func(body []byte) (plan, error){
	"synth":  decodePlan((*SynthRequest).plan),
	"matrix": decodePlan((*MatrixRequest).plan),
	"pareto": decodePlan((*ParetoRequest).plan),
}

func decodePlan[R any, P plan](validate func(*R) (P, error)) func([]byte) (plan, error) {
	return func(body []byte) (plan, error) {
		var req R
		if err := decodeStrict(body, &req); err != nil {
			return nil, fmt.Errorf("bad request body: %w", err)
		}
		p, err := validate(&req)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

// decodeKind looks kind up in the table and plans body with it.
func decodeKind(kind string, body []byte) (plan, error) {
	decode, ok := kinds[kind]
	if !ok {
		return nil, fmt.Errorf(`unknown kind %q (want "synth", "matrix" or "pareto")`, kind)
	}
	return decode(body)
}

// executePlan runs a validated request in-process: the served local
// job's path, with an empty shard tally and no metrics.
func executePlan[T any, P plan](ctx context.Context, st *store.Store, validate func() (P, error), sh sim.Shard, progress func(done, total int)) (*T, bool, error) {
	p, err := validate()
	if err != nil {
		return nil, false, err
	}
	out, hit, _, err := p.finish(ctx, st, sh, progress, shardTally{})
	if err != nil {
		return nil, false, err
	}
	return out.(*T), hit, nil
}

// shardCount resolves a requested shard count: 0 defers to the server
// default, and a count over limit is clamped (a lease owning nothing is
// pure overhead).
func shardCount(asked, def, limit int) int {
	if asked == 0 {
		asked = def
	}
	return min(asked, limit)
}

// ---- synth ----

// SynthRequest is the body of a {"kind":"synth"} job; netsmith fills
// one from its flags. Zero values select synth.Config's defaults: the
// paper's radix 4, asymmetric links and a fixed search budget.
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
	// evolution rounds. See synth.Config.
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

// synthPlan is the validated, executable form of a SynthRequest.
type synthPlan struct{ cfg synth.Config }

func (req *SynthRequest) plan() (*synthPlan, error) {
	g, err := parseBoundedGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	// Statically invalid knobs must 400 at POST time, not fail the job
	// after consuming a queue slot. synth has no sign rule for the
	// constraint bounds (zero or below means unconstrained), so serve
	// keeps this one.
	if req.MaxDiameter < 0 || req.MinCutBW < 0 {
		return nil, fmt.Errorf("negative constraint bound")
	}
	cl, err := layout.ParseClass(defaultStr(req.Class, "medium"))
	if err != nil {
		return nil, err
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
		cfg.Weights = traffic.Shuffle(g.N()).WeightMatrix()
	default:
		return nil, fmt.Errorf("unknown objective %q (want latop, scop or shufopt)", req.Objective)
	}
	if err := checkBudget(cfg); err != nil {
		return nil, err
	}
	return &synthPlan{cfg}, nil
}

// A synthesis job is one search: it reports no progress and never
// shards, so only a malformed lease reaches shard.
func (*synthPlan) units() int                    { return 0 }
func (*synthPlan) shards(int) int                { return 0 }
func (*synthPlan) shardDone(sim.MatrixStats) int { return 0 }
func (*synthPlan) shard(context.Context, *store.Store, sim.Shard, func(int, int)) (*shardReport, error) {
	return nil, errors.New("synth jobs do not shard")
}

func (p *synthPlan) finish(ctx context.Context, st *store.Store, _ sim.Shard, _ func(int, int), _ shardTally) (any, bool, func(*serverStats), error) {
	// Synthesis has no internal cancellation points; honor a cancel that
	// lands before it starts.
	if err := ctx.Err(); err != nil {
		return nil, false, nil, err
	}
	res, hit, err := synth.CachedGenerate(st, p.cfg)
	if err != nil {
		return nil, false, nil, err
	}
	tj, err := json.Marshal(res.Topology)
	if err != nil {
		return nil, false, nil, err
	}
	note := func(ss *serverStats) {
		ss.synthRuns++
		if hit {
			ss.synthCached++
		}
	}
	return &SynthResult{
		Topology:  tj,
		Objective: res.Objective, Bound: res.Bound, Gap: res.Gap,
		Optimal: res.Optimal, EnergyProxy: res.EnergyProxy,
		CriticalLinks: res.CriticalLinks, Fragility: res.Fragility,
		Links:    res.Topology.NumLinks(),
		Diameter: res.Topology.Diameter(),
		AvgHops:  res.Topology.AverageHops(),
	}, hit, note, nil
}

// ExecuteSynth runs a synth request in-process against st, through the
// exact validation and cached-generation path the HTTP job runner
// uses. It backs the root-package Client's local mode, so local and
// remote execution cannot drift.
func ExecuteSynth(ctx context.Context, st *store.Store, req SynthRequest) (*SynthResult, bool, error) {
	return executePlan[SynthResult](ctx, st, req.plan, sim.Shard{}, nil)
}

// ---- matrix ----

// MatrixRequest is the body of a {"kind":"matrix"} job; netbench
// -matrix fills one from its flags.
type MatrixRequest struct {
	Grid  string `json:"grid"`            // "RxC"
	Class string `json:"class,omitempty"` // synthesized-topology class
	// Topos names the topologies: "mesh", "ns" (synthesized, MCLB
	// routing) or an expert baseline such as "Kite-Medium" (NDBT
	// routing); default mesh.
	Topos    []string  `json:"topos,omitempty"`
	Patterns []string  `json:"patterns,omitempty"` // registry args; default uniform
	Rates    []float64 `json:"rates,omitempty"`    // default 0.02, 0.08, 0.14
	// Fidelity selects the cycle budgets: smoke, fast (default) or
	// full.
	Fidelity string `json:"fidelity,omitempty"`
	// Seed is the matrix base seed. Omitted means 42, the netbench
	// -matrix default (an explicit 0 is honored as 0).
	Seed         *int64  `json:"seed,omitempty"`
	Energy       bool    `json:"energy,omitempty"`
	EnergyWeight float64 `json:"energy_weight,omitempty"`
	RobustWeight float64 `json:"robust_weight,omitempty"`
	// Faults lists fault-schedule registry args ("name" or
	// "name:key=val:..."), each added as a matrix axis entry alongside
	// the always-present fault-free baseline.
	Faults []string `json:"faults,omitempty"`
	// SynthIterations bounds "ns" topology synthesis (default 20000, or
	// 80000 at full fidelity; fixed 4 restarts; deterministic, hence
	// cacheable).
	SynthIterations int `json:"synth_iterations,omitempty"`
	// SynthPopulation/SynthGenerations switch "ns" synthesis to
	// population mode (still deterministic and cacheable). Like the
	// synthesis budget, they are part of the ns topology's identity.
	SynthPopulation  int `json:"synth_population,omitempty"`
	SynthGenerations int `json:"synth_generations,omitempty"`
	// Shards, when > 1, splits the matrix into that many shard leases
	// for cluster workers instead of executing locally (clamped to the
	// cell count; capped at 32). 0 defers to the server's configured
	// default (Config.ClusterShards); 1 forces local execution.
	Shards int `json:"shards,omitempty"`
	// Trace names a trace file replayed as one more pattern after
	// Patterns; its cells are keyed by the file's content, not its name.
	// It is in-process only: the JSON decoder cannot set it, so a server
	// never opens a client-chosen path, and a remote-mode Client refuses
	// a job that sets it.
	Trace string `json:"-"`
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

// checkBudget validates a synthesis config by synth's own rules
// (Normalized: radix, weights, the budget's signs and the population
// knobs) and then bounds the normalized budget by the server caps. The
// caps hold before the total population budget, population * (1 +
// generations) * iterations annealing steps, is formed, so it cannot
// overflow; it must not exceed what the restart caps already allow.
func checkBudget(cfg synth.Config) error {
	n, err := cfg.Normalized()
	if err != nil {
		return err
	}
	switch {
	case n.Iterations > maxSynthIters:
		return fmt.Errorf("iterations %d over cap %d", n.Iterations, maxSynthIters)
	case n.Restarts > maxSynthRestarts:
		return fmt.Errorf("restarts %d over cap %d", n.Restarts, maxSynthRestarts)
	case n.Population > maxPopulation:
		return fmt.Errorf("population %d over cap %d", n.Population, maxPopulation)
	case n.Generations > maxGenerations:
		return fmt.Errorf("generations %d over cap %d", n.Generations, maxGenerations)
	}
	// Without a population the product is 0.
	steps := int64(n.Population) * int64(1+n.Generations) * int64(n.Iterations)
	if limit := int64(maxSynthIters) * int64(maxSynthRestarts); steps > limit {
		return fmt.Errorf("population budget %d annealing steps over cap %d", steps, limit)
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

// nsConfig builds the synthesis config of the "ns" topologies the
// matrix and pareto plans share, with synth.MatrixNSConfig, and checks
// it. An omitted seed means 42 (an explicit 0 is honored) and an
// omitted budget 20000 annealing steps, or 80000 at full fidelity. The
// config decides each ns topology, whose fingerprint anchors its cells'
// store keys, so every front end must build it here or stop sharing
// cells.
func nsConfig(g *layout.Grid, cl layout.Class, energyWeight, robustWeight float64, seed *int64, fidelity string, iters, population, generations int) (synth.Config, error) {
	s := int64(42)
	if seed != nil {
		s = *seed
	}
	if iters == 0 {
		iters = 20000
		if fidelity == sim.FidelityFull {
			iters = 80000
		}
	}
	cfg := synth.MatrixNSConfig(g, cl, energyWeight, robustWeight, s, iters, population, generations)
	return cfg, checkBudget(cfg)
}

// traceFactory replays the trace file at path as a matrix pattern. The
// file is parsed once and every cell replays the in-memory records.
// The cell key hashes the file's content, so two different traces named
// alike never share cells, and the same trace under two names does.
func traceFactory(path string, n int) (sim.PatternFactory, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return sim.PatternFactory{}, err
	}
	recs, err := traffic.ParseTrace(bytes.NewReader(raw))
	if err != nil {
		return sim.PatternFactory{}, err
	}
	tag := strings.TrimSuffix(filepath.Base(path), ".csv")
	if _, err := traffic.NewReplay(tag, n, recs, true); err != nil {
		return sim.PatternFactory{}, err
	}
	sum := sha256.Sum256(raw)
	return sim.PatternFactory{
		Name: "trace/" + tag,
		Key:  fmt.Sprintf("trace:%x:loop=true", sum[:8]),
		New: func() (traffic.Pattern, error) {
			return traffic.NewReplay(tag, n, recs, true)
		},
	}, nil
}

// matrixPlan is the validated, executable form of a MatrixRequest.
type matrixPlan struct {
	topos     []string
	factories []sim.PatternFactory
	faults    []sim.FaultFactory
	rates     []float64
	base      sim.Config
	// ns is the "ns" topology's synthesis config; its grid, class and
	// seed are the matrix's.
	ns          synth.Config
	shardsAsked int
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
	fidelity := defaultStr(req.Fidelity, sim.FidelityFast)
	ns, err := nsConfig(g, cl, req.EnergyWeight, req.RobustWeight, req.Seed, fidelity, req.SynthIterations, req.SynthPopulation, req.SynthGenerations)
	if err != nil {
		return nil, err
	}
	p := &matrixPlan{ns: ns}
	topos := req.Topos
	if len(topos) == 0 {
		topos = []string{"mesh"}
	}
	if len(topos) > maxTopos {
		return nil, fmt.Errorf("%d topologies over cap %d", len(topos), maxTopos)
	}
	for _, name := range topos {
		name = strings.TrimSpace(name)
		if name != "mesh" && name != "ns" {
			if _, err := expert.Get(name, g); err != nil {
				return nil, fmt.Errorf("unknown topology %q (want mesh, ns or a baseline for the grid: %s)",
					name, strings.Join(expert.Names(g), ", "))
			}
		}
		p.topos = append(p.topos, name)
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
		if _, err := reg.Build(name, env, params); err != nil {
			return nil, err
		}
		p.factories = append(p.factories, sim.RegistryFactory(reg, name, env, params))
	}
	if req.Trace != "" {
		f, err := traceFactory(req.Trace, env.N)
		if err != nil {
			return nil, err
		}
		p.factories = append(p.factories, f)
	}
	p.rates = req.Rates
	if len(p.rates) == 0 {
		p.rates = []float64{0.02, 0.08, 0.14}
	}
	if len(p.rates) > maxRatePoints {
		return nil, fmt.Errorf("%d rates over cap %d", len(p.rates), maxRatePoints)
	}
	for _, r := range p.rates {
		if !(r > 0) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("rate %v must be positive and finite", r)
		}
	}
	if err := sim.ApplyFidelity(&p.base, fidelity); err != nil {
		return nil, err
	}
	p.base.CollectEnergy = req.Energy
	if len(req.Faults) > maxFaults {
		return nil, fmt.Errorf("%d faults over cap %d", len(req.Faults), maxFaults)
	}
	if len(req.Faults) > 0 {
		// The fault-free baseline leads the axis (degradation columns
		// are measured against it, and its cells share store keys with
		// matrices that have no fault axis), schedules are validated
		// eagerly against the grid's mesh, and duplicate canonical specs
		// collapse.
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
	if req.Shards < 0 || req.Shards > maxShards {
		return nil, fmt.Errorf("shards %d outside [0, %d]", req.Shards, maxShards)
	}
	p.shardsAsked = req.Shards
	return p, nil
}

// run builds the setups (exp.MatrixSetups: ns via cached synthesis
// and MCLB, every other name an NDBT-routed expert baseline) and runs
// the store-backed matrix. A zero shard executes (or merges) the full
// matrix; an enabled shard simulates only owned cells and surfaces
// sim.IncompleteError when other shards' cells are still pending.
// synthAllCached reports whether every "ns" topology came from the
// store.
func (p *matrixPlan) run(ctx context.Context, st *store.Store, shard sim.Shard, progress func(done, total int)) (res *sim.MatrixResult, synthAllCached bool, err error) {
	setups, synthAllCached, err := exp.MatrixSetups(p.topos, p.ns, st)
	if err != nil {
		return nil, false, err
	}
	res, err = sim.RunMatrix(sim.MatrixConfig{
		Setups: setups, Patterns: p.factories, Faults: p.faults,
		Rates: p.rates,
		Base:  p.base, Seed: p.ns.Seed, Store: st,
		Shard: shard, Ctx: ctx, Progress: progress,
	})
	return res, synthAllCached, err
}

func (p *matrixPlan) units() int         { return p.cellCount() }
func (p *matrixPlan) shards(def int) int { return shardCount(p.shardsAsked, def, p.cellCount()) }

// shardDone: matrix progress counts cells, so a completed shard's stats
// are its exact tally.
func (p *matrixPlan) shardDone(st sim.MatrixStats) int { return st.Computed + st.CacheHits }

func (p *matrixPlan) shard(ctx context.Context, st *store.Store, sh sim.Shard, progress func(done, total int)) (*shardReport, error) {
	res, synthCached, err := p.run(ctx, st, sh, progress)
	var inc *sim.IncompleteError
	switch {
	case err == nil:
		// Every other shard had finished: this run merged the matrix.
		return &shardReport{stats: res.Stats, synthCached: synthCached}, nil
	case errors.As(err, &inc):
		return &shardReport{
			stats:       sim.MatrixStats{Cells: inc.Cells, Computed: inc.Computed, CacheHits: inc.CacheHits},
			synthCached: synthCached,
		}, nil
	}
	return nil, err
}

func (p *matrixPlan) finish(ctx context.Context, st *store.Store, sh sim.Shard, progress func(done, total int), tally shardTally) (any, bool, func(*serverStats), error) {
	res, synthCached, err := p.run(ctx, st, sh, progress)
	if err != nil {
		return nil, false, nil, err
	}
	// A cell this run found in the store counts as cached only if no
	// shard of this job computed it.
	cells := res.Stats.Cells
	computed := min(tally.computed+res.Stats.Computed, cells)
	stats := sim.MatrixStats{
		Cells: cells, Computed: computed, CacheHits: cells - computed,
		StoreErrors: tally.storeErrs + res.Stats.StoreErrors,
	}
	synthHit := synthCached && !tally.synthSearched
	note := func(ss *serverStats) {
		// Shard completions already charged the cells they computed.
		ss.cellsComputed += int64(res.Stats.Computed)
		ss.cellsCached += int64(stats.CacheHits)
	}
	out := &MatrixJobResult{Matrix: res, Stats: stats, SynthCacheHit: synthHit, Shards: tally.shards}
	return out, computed == 0 && synthHit, note, nil
}

// ExecuteMatrix runs a matrix request in-process against st, through
// the same validation and execution path as the HTTP job runner. The
// zero shard runs the full matrix; an enabled one simulates its own
// cells and returns *sim.IncompleteError while other shards' cells are
// missing from st. ctx cancels with cell granularity; progress may be
// nil. It backs netbench -matrix and the root-package Client's local
// mode.
func ExecuteMatrix(ctx context.Context, st *store.Store, req MatrixRequest, sh sim.Shard, progress func(done, total int)) (*MatrixJobResult, bool, error) {
	return executePlan[MatrixJobResult](ctx, st, req.plan, sh, progress)
}

// ---- pareto ----

// maxParetoPoints caps the sweep's weight grid (|energy_weights| x
// |robust_weights|): each point is a full synthesis plus a matrix row.
const maxParetoPoints = 64

// ParetoRequest is the body of a {"kind":"pareto"} job. It sweeps the
// synthesis weight grid, measures every candidate, and returns the
// dominated-point-free frontier with fleet-level energy accounting.
// Synthesis knobs default exactly like matrix "ns" topologies (seed 42,
// 20000 iterations fast / 80000 full), so a pareto sweep and a matrix
// run over the same store share synthesis results and cells.
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
	cfg         exp.ParetoConfig
	points      int // resolved weight-grid size
	shardsAsked int
}

func (req *ParetoRequest) plan() (*paretoPlan, error) {
	g, err := parseBoundedGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	cl, err := layout.ParseClass(defaultStr(req.Class, "medium"))
	if err != nil {
		return nil, err
	}
	fidelity := defaultStr(req.Fidelity, sim.FidelityFast)
	base, err := nsConfig(g, cl, 0, 0, req.Seed, fidelity, req.SynthIterations, req.SynthPopulation, req.SynthGenerations)
	if err != nil {
		return nil, err
	}
	if len(req.Rates) > maxRatePoints {
		return nil, fmt.Errorf("%d rates over cap %d", len(req.Rates), maxRatePoints)
	}
	if req.Shards < 0 || req.Shards > maxShards {
		return nil, fmt.Errorf("shards %d outside [0, %d]", req.Shards, maxShards)
	}
	cfg := exp.ParetoConfig{
		Base:          base,
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
	return &paretoPlan{cfg: cfg, points: n, shardsAsked: req.Shards}, nil
}

// run executes the sweep (or one shard of it) against st.
func (p *paretoPlan) run(ctx context.Context, st *store.Store, shard sim.Shard, progress func(done, total int)) (*exp.Frontier, error) {
	cfg := p.cfg
	cfg.Store, cfg.Ctx, cfg.Progress, cfg.Shard = st, ctx, progress, shard
	return exp.ParetoSweep(cfg)
}

// units counts sweep units: one per synthesis point plus an equal
// measurement share. Shards split the points.
func (p *paretoPlan) units() int         { return 2 * p.points }
func (p *paretoPlan) shards(def int) int { return shardCount(p.shardsAsked, def, p.points) }

// shardDone: sweep units are not cells, so a completed shard's last
// heartbeat stands and the merge drives the remainder.
func (p *paretoPlan) shardDone(sim.MatrixStats) int { return 0 }

func (p *paretoPlan) shard(ctx context.Context, st *store.Store, sh sim.Shard, progress func(done, total int)) (*shardReport, error) {
	fr, err := p.run(ctx, st, sh, progress)
	var inc *exp.ParetoIncompleteError
	switch {
	case err == nil:
		// The whole sweep was cached: the frontier came straight back.
		s := fr.Stats
		return &shardReport{
			stats:       sim.MatrixStats{Cells: s.Cells, Computed: s.CellsComputed, CacheHits: s.CellsCached, StoreErrors: s.StoreErrors},
			pointsSynth: s.Synthesized,
			synthCached: s.Synthesized == 0,
		}, nil
	case errors.As(err, &inc):
		return &shardReport{
			stats:       sim.MatrixStats{Cells: inc.Cells, Computed: inc.CellsComputed, CacheHits: inc.CellsCached},
			pointsSynth: inc.Synthesized,
			synthCached: inc.Synthesized == 0,
		}, nil
	}
	return nil, err
}

func (p *paretoPlan) finish(ctx context.Context, st *store.Store, sh sim.Shard, progress func(done, total int), tally shardTally) (any, bool, func(*serverStats), error) {
	fr, err := p.run(ctx, st, sh, progress)
	if err != nil {
		return nil, false, nil, err
	}
	stats := fr.Stats
	if !stats.FrontierCached {
		// A point or cell this run found in the store counts as cached
		// only if no shard of this job filled it.
		stats.Synthesized = min(tally.pointsSynth+fr.Stats.Synthesized, stats.Points)
		stats.SynthCached = stats.Points - stats.Synthesized
		stats.CellsComputed = min(tally.computed+fr.Stats.CellsComputed, stats.Cells)
		stats.CellsCached = stats.Cells - stats.CellsComputed
		stats.StoreErrors += tally.storeErrs
	}
	note := func(ss *serverStats) {
		ss.paretoSweeps++
		ss.paretoKept += int64(len(fr.Points))
		ss.paretoPruned += int64(fr.Pruned)
		ss.fleetPowerMW += fr.Energy.AggregatePowerMW
		ss.fleetIdleMW += fr.Energy.IdlePowerMW
		ss.fleetActiveMW += fr.Energy.ActivePowerMW
		ss.fleetFlitPJ += fr.Energy.EnergyPerFlitPJ
		// Shard completions already charged the cells they computed.
		ss.cellsComputed += int64(fr.Stats.CellsComputed)
		ss.cellsCached += int64(stats.CellsCached)
	}
	hit := stats.FrontierCached || (stats.Synthesized == 0 && stats.CellsComputed == 0)
	return &ParetoJobResult{Frontier: fr, Stats: stats, Shards: tally.shards}, hit, note, nil
}

// ExecutePareto runs a pareto request in-process against st, through
// the same validation and execution path as the HTTP job runner. The
// zero shard runs the full sweep; an enabled one computes its own
// points and returns *exp.ParetoIncompleteError unless the frontier is
// already in st. It backs netbench -pareto and the root-package
// Client's local mode, so served and in-process frontiers are
// byte-identical.
func ExecutePareto(ctx context.Context, st *store.Store, req ParetoRequest, sh sim.Shard, progress func(done, total int)) (*ParetoJobResult, bool, error) {
	return executePlan[ParetoJobResult](ctx, st, req.plan, sh, progress)
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

// splitJobBody splits a POST /v1/jobs envelope — {"kind":K,
// "priority":N, ...} — into its kind, priority and the kind-specific
// request (the remaining fields, re-marshaled).
func splitJobBody(body []byte) (kind string, priority int, rest []byte, err error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		return "", 0, nil, fmt.Errorf("bad request body: %v", err)
	}
	kindRaw, ok := fields["kind"]
	if !ok {
		return "", 0, nil, errors.New(`missing "kind" (want "synth", "matrix" or "pareto")`)
	}
	if err := json.Unmarshal(kindRaw, &kind); err != nil {
		return "", 0, nil, fmt.Errorf("bad kind: %v", err)
	}
	if pRaw, ok := fields["priority"]; ok {
		if err := json.Unmarshal(pRaw, &priority); err != nil {
			return "", 0, nil, fmt.Errorf("bad priority: %v", err)
		}
		if priority < -100 || priority > 100 {
			return "", 0, nil, fmt.Errorf("priority %d outside [-100, 100]", priority)
		}
	}
	delete(fields, "kind")
	delete(fields, "priority")
	rest, err = json.Marshal(fields)
	return kind, priority, rest, err
}

// handlePostJob is POST /v1/jobs: one tagged body for every kind in the
// table — {"kind":K, "priority":N, ...kind-specific fields}. The rest
// is planned strictly through the kind table (typos fail loudly instead
// of silently running a default job) and enqueued.
func (s *Server) handlePostJob(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	kind, priority, rest, err := splitJobBody(body)
	var p plan
	if err == nil {
		p, err = decodeKind(kind, rest)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	j, qerr := s.submit(kind, rest, p, priority)
	if qerr != nil {
		writeAPIError(w, qerr)
		return
	}
	s.mu.Lock()
	v := s.view(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

// submit enqueues a planned job. Its runner is the same for every kind:
// a sharded job first waits for its shard leases (runShards), then the
// plan's finish runs unsharded and cache-first over the store, folding
// in the shard tally — a local job is a merge with an empty tally.
// body is the kind-specific request the shard leases carry: workers
// decode these exact bytes through the same kind-table entry. A job
// whose plan has units (matrix, pareto) resolves cells, and its run,
// shard waits included, counts toward /metrics' busy time.
func (s *Server) submit(kind string, body []byte, p plan, priority int) (*job, *apiError) {
	shards := p.shards(s.cfg.ClusterShards)
	busy := p.units() > 0
	j, qerr := s.enqueue(kind, priority, func(ctx context.Context, j *job) (any, bool, error) {
		if busy {
			s.mu.Lock()
			s.stats.busyStart(time.Now())
			s.mu.Unlock()
			defer func() {
				s.mu.Lock()
				s.stats.busyEnd(time.Now())
				s.mu.Unlock()
			}()
		}
		var tally shardTally
		if shards > 1 {
			var err error
			if tally, err = s.runShards(ctx, j, kind, body, p, shards); err != nil {
				return nil, false, err
			}
		}
		out, hit, note, err := p.finish(ctx, s.cfg.Store, sim.Shard{}, func(done, total int) { s.setProgress(j, done, total) }, tally)
		if err != nil {
			return nil, false, err
		}
		s.mu.Lock()
		note(&s.stats)
		s.mu.Unlock()
		return out, hit, nil
	})
	if qerr == nil {
		s.setProgress(j, 0, p.units())
	}
	return j, qerr
}
