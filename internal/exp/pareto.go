package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"netsmith/internal/power"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
)

// Pareto sweeps: the paper's latency/throughput/energy trade-off as a
// first-class artifact. A sweep synthesizes one topology per
// (EnergyWeight, RobustWeight) grid point through the CachedGenerate
// path, measures every candidate with the matrix harness (uniform
// traffic, CollectEnergy on), prunes dominated points with an exact
// non-domination filter, and caches the assembled frontier in the
// content-addressed store under a canonical pareto key. Every stage is
// deterministic, so frontiers are byte-identical across GOMAXPROCS and
// warm/cold stores — a frontier diff between code versions is a real
// behavior change, never schedule noise.

// DefaultEnergyWeights is the EnergyWeight grid swept when a
// ParetoConfig leaves EnergyWeights empty: the unpriced baseline plus
// three increasingly energy-biased syntheses.
func DefaultEnergyWeights() []float64 { return []float64{0, 0.5, 1, 2} }

// DefaultParetoRates is the offered-rate grid measured per candidate
// when Rates is empty: a zero-load anchor, a mid-load point and a point
// near typical mesh saturation. The lowest rate anchors the reported
// per-point power (load-independent leakage dominates there), higher
// rates feed saturation detection.
func DefaultParetoRates() []float64 { return []float64{0.02, 0.08, 0.14} }

// ParetoMetrics is the objective vector the domination filter ranks:
// lower zero-load latency, higher saturation throughput, lower energy
// per delivered flit.
type ParetoMetrics struct {
	LatencyNs       float64
	SaturationPerNs float64
	EnergyPerFlitPJ float64
}

// Dominates reports whether a is at least as good as b on every axis
// and strictly better on at least one. Equal vectors do not dominate
// each other.
func (a ParetoMetrics) Dominates(b ParetoMetrics) bool {
	if a.LatencyNs > b.LatencyNs || a.SaturationPerNs < b.SaturationPerNs || a.EnergyPerFlitPJ > b.EnergyPerFlitPJ {
		return false
	}
	return a.LatencyNs < b.LatencyNs || a.SaturationPerNs > b.SaturationPerNs || a.EnergyPerFlitPJ < b.EnergyPerFlitPJ
}

// FilterDominated returns the indices of the non-dominated points of
// ms, ascending (input order). Ties are canonical: of metric-identical
// duplicates only the first survives, so the filter's output is a
// deterministic function of the input order. Every dropped index is
// dominated by — or metric-identical to — some surviving index.
func FilterDominated(ms []ParetoMetrics) []int {
	keep := make([]int, 0, len(ms))
	for i, m := range ms {
		alive := true
		for j, o := range ms {
			if j == i {
				continue
			}
			if o.Dominates(m) || (o == m && j < i) {
				alive = false
				break
			}
		}
		if alive {
			keep = append(keep, i)
		}
	}
	return keep
}

// ParetoPoint is one surviving sweep point: the synthesized topology,
// its synthesis-side scores, and its measured behavior at the sweep's
// lowest offered rate (power) and across the rate grid (saturation).
type ParetoPoint struct {
	EnergyWeight float64 `json:"energy_weight"`
	RobustWeight float64 `json:"robust_weight"`

	Topology      *topo.Topology `json:"topology"`
	Links         int            `json:"links"`
	Objective     float64        `json:"objective"`
	EnergyProxy   float64        `json:"energy_proxy"`
	CriticalLinks int            `json:"critical_links"`
	Fragility     int            `json:"fragility"`

	// LatencyNs is the measured zero-load latency (lowest swept rate);
	// SaturationPerNs the measured saturation throughput in
	// packets/node/ns (0 when the curve never saturates in the grid).
	LatencyNs       float64 `json:"latency_ns"`
	SaturationPerNs float64 `json:"saturation_pkt_node_ns"`

	// Power accounting at the lowest swept rate. IdlePowerMW is the
	// load-independent leakage (power.Model.LeakageMW — measured
	// leakage equals it by construction); ActivePowerMW the dynamic
	// remainder; the shares partition AvgPowerMW.
	AvgPowerMW      float64 `json:"avg_power_mw"`
	IdlePowerMW     float64 `json:"idle_power_mw"`
	ActivePowerMW   float64 `json:"active_power_mw"`
	IdleShare       float64 `json:"idle_share"`
	ActiveShare     float64 `json:"active_share"`
	EnergyPerFlitPJ float64 `json:"energy_per_flit_pj"`
}

// Metrics extracts the point's domination vector.
func (p ParetoPoint) Metrics() ParetoMetrics {
	return ParetoMetrics{LatencyNs: p.LatencyNs, SaturationPerNs: p.SaturationPerNs, EnergyPerFlitPJ: p.EnergyPerFlitPJ}
}

// FleetEnergy is the sweep-level aggregate: the PUE-style accounting of
// a fleet deploying one instance of every frontier design. Powers are
// sums over frontier points in milliwatts (multiply by deployed
// instance count for fleet watts); EnergyPerFlitPJ is the mean energy
// per delivered flit across frontier points; the shares partition
// AggregatePowerMW into its load-independent and dynamic components.
type FleetEnergy struct {
	AggregatePowerMW float64 `json:"aggregate_power_mw"`
	IdlePowerMW      float64 `json:"idle_power_mw"`
	ActivePowerMW    float64 `json:"active_power_mw"`
	IdleShare        float64 `json:"idle_share"`
	ActiveShare      float64 `json:"active_share"`
	EnergyPerFlitPJ  float64 `json:"energy_per_flit_pj"`
}

// ParetoStats reports what a sweep actually did — never part of the
// cached frontier (a warm hit recomputes nothing, so its stats differ
// from the run that filled the cache).
type ParetoStats struct {
	Points        int `json:"points"`       // sweep points in the weight grid
	Synthesized   int `json:"synthesized"`  // points searched this run
	SynthCached   int `json:"synth_cached"` // points served from the synthesis cache
	Cells         int `json:"cells"`        // matrix cells measured (unique topologies x rates)
	CellsComputed int `json:"cells_computed"`
	CellsCached   int `json:"cells_cached"`
	StoreErrors   int `json:"store_errors"`
	// FrontierCached is true when the assembled frontier itself came
	// from the store (nothing was synthesized or simulated).
	FrontierCached bool `json:"frontier_cached"`
}

// Frontier is the assembled, dominated-point-free artifact. Everything
// but Stats is deterministic and cached; Points keeps sweep order.
type Frontier struct {
	Grid          string        `json:"grid"`
	Class         string        `json:"class"`
	Objective     string        `json:"objective"`
	Seed          int64         `json:"seed"`
	EnergyWeights []float64     `json:"energy_weights"`
	RobustWeights []float64     `json:"robust_weights"`
	Rates         []float64     `json:"rates"`
	Fidelity      string        `json:"fidelity"`
	Swept         int           `json:"swept"`
	Pruned        int           `json:"pruned"`
	Points        []ParetoPoint `json:"points"`
	Energy        FleetEnergy   `json:"fleet_energy"`

	Stats ParetoStats `json:"-"`
}

// ParetoIncompleteError reports a successfully finished shard of a
// sweep that cannot assemble the frontier alone. The shard has
// synthesized and measured its owned points into the store; once every
// shard has done the same, an unsharded sweep over the warm store
// assembles the frontier without recomputing anything.
type ParetoIncompleteError struct {
	Shard         sim.Shard
	Points        int // total sweep points
	Owned         int // points owned by this shard
	Pending       int // points owned by other shards
	Synthesized   int
	SynthCached   int
	Cells         int
	CellsComputed int
	CellsCached   int
}

func (e *ParetoIncompleteError) Error() string {
	return fmt.Sprintf("exp: pareto shard %s complete (%d of %d points owned, %d synthesized, %d cached; %d cells, %d computed); %d points pending from other shards",
		e.Shard, e.Owned, e.Points, e.Synthesized, e.SynthCached, e.Cells, e.CellsComputed, e.Pending)
}

// ParetoConfig parameterizes a sweep. The Base config carries
// everything but the swept weights (which must be zero there — the
// grids own them); every sweep point is Base with one
// (EnergyWeight, RobustWeight) pair applied.
type ParetoConfig struct {
	// Base is the synthesis config shared by every sweep point.
	// EnergyWeight/RobustWeight must be zero (the sweep grids set them
	// per point).
	Base synth.Config

	// EnergyWeights and RobustWeights span the sweep grid
	// (energy-major order). Empty EnergyWeights defaults to
	// DefaultEnergyWeights; empty RobustWeights to {0}. Weights must
	// be finite, non-negative and free of duplicates.
	EnergyWeights []float64
	RobustWeights []float64

	// Rates is the offered-rate grid measured per candidate (positive,
	// strictly ascending; default DefaultParetoRates). The lowest rate
	// anchors per-point power, the full grid feeds saturation.
	Rates []float64

	// Fidelity selects the sim cycle budgets (sim.FidelitySmoke/Fast/
	// Full; default fast, matching the matrix front ends).
	Fidelity string

	// Store caches synthesis results, matrix cells and the assembled
	// frontier. Optional unless Shard is enabled.
	Store *store.Store

	// Ctx cancels the sweep between synthesis points and between
	// matrix cells.
	Ctx context.Context

	// Progress receives (done, total) in sweep units: one unit per
	// synthesis point resolved plus an equal share for measurement
	// (total = 2 x points).
	Progress func(done, total int)

	// Shard, when enabled (Count > 1), restricts the sweep to points
	// with index % Count == Index. A sharded sweep persists its work
	// and returns *ParetoIncompleteError; it never assembles the
	// frontier (that would duplicate other shards' cells). Requires
	// Store.
	Shard sim.Shard
}

// normalized resolves defaults and validates; the returned config has
// a defaulted Base and non-empty grids.
func (pc ParetoConfig) normalized() (ParetoConfig, error) {
	if pc.Base.EnergyWeight != 0 || pc.Base.RobustWeight != 0 {
		return pc, errors.New("exp: pareto Base.EnergyWeight/RobustWeight must be zero; the sweep grids set them per point")
	}
	base, err := pc.Base.Normalized()
	if err != nil {
		return pc, err
	}
	pc.Base = base
	if len(pc.EnergyWeights) == 0 {
		pc.EnergyWeights = DefaultEnergyWeights()
	}
	if len(pc.RobustWeights) == 0 {
		pc.RobustWeights = []float64{0}
	}
	if err := checkWeightGrid("energy", pc.EnergyWeights); err != nil {
		return pc, err
	}
	if err := checkWeightGrid("robust", pc.RobustWeights); err != nil {
		return pc, err
	}
	if len(pc.Rates) == 0 {
		pc.Rates = DefaultParetoRates()
	}
	for i, r := range pc.Rates {
		if !(r > 0) || math.IsInf(r, 0) {
			return pc, fmt.Errorf("exp: pareto rate %v must be positive and finite", r)
		}
		if i > 0 && r <= pc.Rates[i-1] {
			return pc, fmt.Errorf("exp: pareto rates must be strictly ascending (%v after %v)", r, pc.Rates[i-1])
		}
	}
	if pc.Fidelity == "" {
		pc.Fidelity = sim.FidelityFast
	}
	var scratch sim.Config
	if err := sim.ApplyFidelity(&scratch, pc.Fidelity); err != nil {
		return pc, err
	}
	if pc.Shard.Count > 1 {
		if pc.Store == nil {
			return pc, errors.New("exp: sharded pareto sweep requires a store (shards meet only through it)")
		}
		if pc.Shard.Index < 0 || pc.Shard.Index >= pc.Shard.Count {
			return pc, fmt.Errorf("exp: pareto shard index %d out of range [0,%d)", pc.Shard.Index, pc.Shard.Count)
		}
	}
	return pc, nil
}

func checkWeightGrid(name string, ws []float64) error {
	for i, w := range ws {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("exp: pareto %s weight %v must be finite and non-negative", name, w)
		}
		for j := 0; j < i; j++ {
			if ws[j] == w {
				return fmt.Errorf("exp: duplicate pareto %s weight %v", name, w)
			}
		}
	}
	return nil
}

// Points validates the config and returns the resolved sweep-point
// count (the weight-grid size after defaulting).
func (pc ParetoConfig) Points() (int, error) {
	norm, err := pc.normalized()
	if err != nil {
		return 0, err
	}
	return len(norm.EnergyWeights) * len(norm.RobustWeights), nil
}

// paretoPayload is the canonical frontier-key description: the shared
// base synthesis payload (swept weights zeroed, via
// synth.Config.CachePayload) plus every sweep knob that changes what
// the frontier contains. Store and Shard are mechanisms, not inputs —
// results are bit-identical with or without them — so they are
// deliberately absent.
type paretoPayload struct {
	Synth         json.RawMessage `json:"synth"`
	EnergyWeights []float64       `json:"energy_weights"`
	RobustWeights []float64       `json:"robust_weights"`
	Rates         []float64       `json:"rates"`
	Fidelity      string          `json:"fidelity"`
	Pattern       string          `json:"pattern"`
	WarmupCycles  int             `json:"warmup"`
	MeasureCycles int             `json:"measure"`
	DrainCycles   int             `json:"drain"`
}

// paretoPattern is the measurement pattern every sweep point is
// simulated under. Fixed: the frontier ranks topologies, and uniform
// all-to-all is the paper's ranking workload.
const paretoPattern = "uniform"

// cacheKey canonicalizes a normalized config into the frontier's store
// key.
func (pc ParetoConfig) cacheKey() (store.Key, bool) {
	base := pc.Base
	base.EnergyWeight, base.RobustWeight = 0, 0
	sp, ok := base.CachePayload()
	if !ok {
		return store.Key{}, false
	}
	var mc sim.Config
	if err := sim.ApplyFidelity(&mc, pc.Fidelity); err != nil {
		return store.Key{}, false
	}
	return store.NewKey("pareto", paretoPayload{
		Synth:         sp,
		EnergyWeights: pc.EnergyWeights,
		RobustWeights: pc.RobustWeights,
		Rates:         pc.Rates,
		Fidelity:      pc.Fidelity,
		Pattern:       paretoPattern,
		WarmupCycles:  mc.WarmupCycles,
		MeasureCycles: mc.MeasureCycles,
		DrainCycles:   mc.DrainCycles,
	}), true
}

// ParetoSweep runs the full sweep: synthesize each weight grid point
// (cache-first), measure every distinct candidate through the matrix
// harness, prune dominated points, aggregate fleet energy, and cache
// the frontier. Deterministic: same config, same bytes, at any
// GOMAXPROCS, warm or cold store. A sharded config persists its owned
// share and returns *ParetoIncompleteError instead of a frontier.
func ParetoSweep(pc ParetoConfig) (*Frontier, error) {
	pc, err := pc.normalized()
	if err != nil {
		return nil, err
	}
	n := len(pc.EnergyWeights) * len(pc.RobustWeights)
	total := 2 * n
	progress := pc.Progress
	if progress == nil {
		progress = func(int, int) {}
	}
	ctx := pc.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	key, keyOK := pc.cacheKey()
	if keyOK && pc.Store != nil {
		var fr Frontier
		if hit, err := pc.Store.Get(key, &fr); err == nil && hit && fr.fits(pc) {
			fr.Stats = ParetoStats{Points: n, FrontierCached: true}
			progress(total, total)
			return &fr, nil
		}
	}

	// Phase 1: synthesize owned points (cache-first). Points owned by
	// other shards are probed, never searched — present means some
	// shard already finished them.
	type pointState struct {
		ew, rw float64
		res    *synth.Result
	}
	pts := make([]pointState, 0, n)
	stats := ParetoStats{Points: n}
	done, owned, pending := 0, 0, 0
	for _, ew := range pc.EnergyWeights {
		for _, rw := range pc.RobustWeights {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("exp: pareto sweep cancelled after %d of %d points: %w", done, n, err)
			}
			cfg := pc.Base
			cfg.EnergyWeight, cfg.RobustWeight = ew, rw
			p := pointState{ew: ew, rw: rw}
			if pc.Shard.Owns(len(pts)) {
				owned++
				res, hit, err := synth.CachedGenerate(pc.Store, cfg)
				if err != nil {
					return nil, fmt.Errorf("exp: pareto point (energy %g, robust %g): %w", ew, rw, err)
				}
				p.res = res
				if hit {
					stats.SynthCached++
				} else {
					stats.Synthesized++
				}
				done++
				progress(done, total)
			} else if res, ok := synth.Probe(pc.Store, cfg); ok {
				p.res = res
			} else {
				pending++
			}
			pts = append(pts, p)
		}
	}

	// Phase 2: measure. Weight grids frequently synthesize the same
	// topology at adjacent points (names collide too — dedup by
	// canonical topology JSON), so each distinct topology is prepared
	// and simulated once. A sharded sweep measures only its owned
	// points; curves index unique setups (one pattern, no faults).
	sharded := pc.Shard.Count > 1
	uniq := make(map[string]int)
	var setups []*sim.Setup
	pointSetup := make([]int, len(pts))
	for i, p := range pts {
		pointSetup[i] = -1
		if p.res == nil || (sharded && !pc.Shard.Owns(i)) {
			continue
		}
		tj, err := json.Marshal(p.res.Topology)
		if err != nil {
			return nil, fmt.Errorf("exp: pareto topology marshal: %w", err)
		}
		sig := string(tj)
		u, ok := uniq[sig]
		if !ok {
			setup, err := sim.Prepare(p.res.Topology, sim.UseMCLB, pc.Base.Seed)
			if err != nil {
				return nil, fmt.Errorf("exp: pareto prepare (energy %g, robust %g): %w", p.ew, p.rw, err)
			}
			u = len(setups)
			setups = append(setups, setup)
			uniq[sig] = u
		}
		pointSetup[i] = u
	}

	// One single-setup matrix per distinct topology, not one matrix over
	// all of them: RunMatrix folds a cell's position into its simulation
	// seed (and therefore its store key), so a multi-setup matrix would
	// key cells by which other topologies this run happened to measure.
	// Per-topology matrices make every cell's key a function of the
	// topology and rate alone — the property that lets shards, assembly
	// passes and differently-shaped sweeps share cells through the store.
	var curves []sim.MatrixCurve
	if len(setups) > 0 {
		base := sim.Config{CollectEnergy: true}
		if err := sim.ApplyFidelity(&base, pc.Fidelity); err != nil {
			return nil, err
		}
		synthDone := done
		totalCells := len(setups) * len(pc.Rates)
		cellsDone := 0
		for _, setup := range setups {
			res, err := sim.RunMatrix(sim.MatrixConfig{
				Setups:   []*sim.Setup{setup},
				Patterns: []sim.PatternFactory{sim.RegistryFactory(traffic.Default(), paretoPattern, traffic.GridEnv(pc.Base.Grid), nil)},
				Rates:    pc.Rates,
				Base:     base,
				Seed:     pc.Base.Seed,
				Ctx:      pc.Ctx,
				Store:    pc.Store,
				Progress: func(cdone, ctotal int) {
					progress(synthDone+owned*(cellsDone+cdone)/totalCells, total)
				},
			})
			if err != nil {
				return nil, err
			}
			cellsDone += len(pc.Rates)
			curves = append(curves, res.Curves...)
			stats.Cells += res.Stats.Cells
			stats.CellsComputed += res.Stats.Computed
			stats.CellsCached += res.Stats.CacheHits
			stats.StoreErrors += res.Stats.StoreErrors
		}
	}

	if sharded {
		return nil, &ParetoIncompleteError{
			Shard: pc.Shard, Points: n, Owned: owned, Pending: pending,
			Synthesized: stats.Synthesized, SynthCached: stats.SynthCached,
			Cells: stats.Cells, CellsComputed: stats.CellsComputed, CellsCached: stats.CellsCached,
		}
	}

	// Phase 3: assemble — score every point, prune dominated ones,
	// aggregate fleet energy, cache the frontier.
	model := power.Default22nm()
	points := make([]ParetoPoint, len(pts))
	metrics := make([]ParetoMetrics, len(pts))
	for i, p := range pts {
		points[i] = assemblePoint(p.ew, p.rw, p.res, curves[pointSetup[i]], model)
		metrics[i] = points[i].Metrics()
	}
	keep := FilterDominated(metrics)
	kept := make([]ParetoPoint, 0, len(keep))
	for _, i := range keep {
		kept = append(kept, points[i])
	}
	fr := &Frontier{
		Grid:          fmt.Sprintf("%dx%d", pc.Base.Grid.Rows, pc.Base.Grid.Cols),
		Class:         pc.Base.Class.String(),
		Objective:     pc.Base.Objective.String(),
		Seed:          pc.Base.Seed,
		EnergyWeights: pc.EnergyWeights, RobustWeights: pc.RobustWeights,
		Rates: pc.Rates, Fidelity: pc.Fidelity,
		Swept: n, Pruned: n - len(kept),
		Points: kept,
		Energy: fleetEnergy(kept),
		Stats:  stats,
	}
	if keyOK && pc.Store != nil {
		// Best-effort, like every other cache write.
		_ = pc.Store.Put(key, fr)
	}
	progress(total, total)
	return fr, nil
}

// fits reports whether fr, read back from the frontier blob, is the
// frontier of the normalized sweep pc: the same grid, class, objective,
// seed, fidelity, weight grids and rates, one swept entry per point, and
// between one and Swept surviving points, each with a topology, the rest
// counted as pruned. Anything else (a null or emptied value, another
// sweep's frontier) is damage, so the sweep re-assembles and overwrites
// it.
func (fr *Frontier) fits(pc ParetoConfig) bool {
	n := len(pc.EnergyWeights) * len(pc.RobustWeights)
	if fr.Grid != fmt.Sprintf("%dx%d", pc.Base.Grid.Rows, pc.Base.Grid.Cols) ||
		fr.Class != pc.Base.Class.String() || fr.Objective != pc.Base.Objective.String() ||
		fr.Seed != pc.Base.Seed || fr.Fidelity != pc.Fidelity ||
		!slices.Equal(fr.EnergyWeights, pc.EnergyWeights) ||
		!slices.Equal(fr.RobustWeights, pc.RobustWeights) || !slices.Equal(fr.Rates, pc.Rates) {
		return false
	}
	if fr.Swept != n || len(fr.Points) < 1 || len(fr.Points) > n || fr.Pruned != n-len(fr.Points) {
		return false
	}
	for _, p := range fr.Points {
		if p.Topology == nil {
			return false
		}
	}
	return true
}

// assemblePoint scores one sweep point from its synthesis result and
// measured curve. Power is reported at the curve's lowest rate; idle
// power is the analytic leakage, which equals measured leakage exactly
// (power.ActivityReport computes it from the same formula).
func assemblePoint(ew, rw float64, res *synth.Result, c sim.MatrixCurve, m power.Model) ParetoPoint {
	low := c.Points[0]
	avg := low.AvgPowerMW
	idle := m.LeakageMW(res.Topology)
	if idle > avg {
		idle = avg
	}
	active := avg - idle
	var idleShare, activeShare float64
	if avg > 0 {
		idleShare, activeShare = idle/avg, active/avg
	}
	return ParetoPoint{
		EnergyWeight: ew, RobustWeight: rw,
		Topology: res.Topology, Links: len(res.Topology.Links()),
		Objective: res.Objective, EnergyProxy: res.EnergyProxy,
		CriticalLinks: res.CriticalLinks, Fragility: res.Fragility,
		LatencyNs:       c.ZeroLoadLatencyNs,
		SaturationPerNs: c.SaturationPerNs,
		AvgPowerMW:      avg, IdlePowerMW: idle, ActivePowerMW: active,
		IdleShare: idleShare, ActiveShare: activeShare,
		EnergyPerFlitPJ: low.EnergyPerFlitPJ,
	}
}

// fleetEnergy aggregates the PUE-style accounting over the frontier.
func fleetEnergy(points []ParetoPoint) FleetEnergy {
	var fe FleetEnergy
	for _, p := range points {
		fe.AggregatePowerMW += p.AvgPowerMW
		fe.IdlePowerMW += p.IdlePowerMW
		fe.ActivePowerMW += p.ActivePowerMW
		fe.EnergyPerFlitPJ += p.EnergyPerFlitPJ
	}
	if n := len(points); n > 0 {
		fe.EnergyPerFlitPJ /= float64(n)
	}
	if fe.AggregatePowerMW > 0 {
		fe.IdleShare = fe.IdlePowerMW / fe.AggregatePowerMW
		fe.ActiveShare = fe.ActivePowerMW / fe.AggregatePowerMW
	}
	return fe
}
