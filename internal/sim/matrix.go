package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"netsmith/internal/fault"
	"netsmith/internal/spec"
	"netsmith/internal/store"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
)

// The scenario matrix generalizes a saturation sweep from "one
// topology, one pattern, a rate grid" (Setup.Curve, a one-row matrix)
// to the full cross product {topology x pattern x fault schedule x
// injection rate}. Cells run on one bounded worker pool, each with a
// deterministic seed derived from its matrix position and a fresh
// pattern instance built from its factory, so the emitted result is
// bit-identical across reruns and GOMAXPROCS settings (the synthesis
// engine's determinism contract, extended to workloads). That
// determinism is also what makes cells content-addressable: with a
// Store attached, each cell's result is cached under a canonical hash
// of its inputs, giving killed runs a resume path and letting Shard
// split one matrix across machines.

// PatternFactory names a workload and constructs fresh instances of it.
// A fresh instance per simulation keeps stateful patterns (bursty MMPP,
// trace replay) safe under the concurrent matrix pool.
type PatternFactory struct {
	Name string
	// Key is the workload's canonical content key for the result store
	// (spec.Key form: name plus sorted, escaped parameters). Factories
	// built by RegistryFactory always fill it; hand-built factories
	// must set it before running with a Store —
	// RunMatrix refuses keyless factories there, because a Name-only
	// fallback would let two differently-parameterized closures collide
	// on the same cached cells.
	Key string
	New func() (traffic.Pattern, error)
}

// FaultFactory names a fault schedule and builds it per topology. The
// build takes the topology because most schedule specs resolve to
// different concrete events on different networks (klinks draws from
// each topology's own link list); RunMatrix builds one schedule per
// (setup, fault) pair and shares it across that pair's cells — the
// engine never mutates a schedule, so sharing is safe.
type FaultFactory struct {
	// Name labels the fault axis in curves and reports.
	Name string
	// Key is the schedule's canonical content key for the result store
	// (fault.ScheduleKey form). Like PatternFactory.Key it must
	// be non-empty for store-backed runs unless the built schedule is
	// empty: a keyless lossy schedule would collide with fault-free
	// cells in the cache.
	Key string
	New func(t *topo.Topology) (*fault.Schedule, error)
}

// FaultRegistryFactory adapts a fault-registry schedule spec to a
// FaultFactory. The display name is the canonical spec.Key, so
// differently parameterized instances of one builder stay
// distinguishable in the matrix output; the store key is
// fault.ScheduleKey, empty for the bare "none".
func FaultRegistryFactory(reg *fault.Registry, name string, params fault.Params) FaultFactory {
	return FaultFactory{
		Name: spec.Key(name, params),
		Key:  fault.ScheduleKey(name, params),
		New: func(t *topo.Topology) (*fault.Schedule, error) {
			return reg.Build(name, t, params)
		},
	}
}

// RegistryFactory adapts a traffic-registry pattern to a PatternFactory.
// Like FaultRegistryFactory it labels the curves by the canonical
// spec.Key, which is the bare name for a parameter-free pattern, so
// differently parameterized instances of one pattern stay apart.
func RegistryFactory(reg *traffic.Registry, name string, env traffic.Env, params traffic.Params) PatternFactory {
	key := spec.Key(name, params)
	return PatternFactory{
		Name: key,
		Key:  key,
		New:  func() (traffic.Pattern, error) { return reg.Build(name, env, params) },
	}
}

// MatrixConfig drives a scenario matrix run. Cells execute batched:
// each worker resets one engine between consecutive cells of the same
// prepared topology instead of rebuilding it, and every cell's result
// equals a fresh Run of the cell's Config (Base plus the per-cell
// overrides and seed below).
type MatrixConfig struct {
	// Setups are the prepared topologies (routing + verified VCs).
	Setups []*Setup
	// Patterns are the workload factories; each cell builds its own
	// instance.
	Patterns []PatternFactory
	// Rates is the offered-rate grid (packets/node/cycle); default
	// DefaultRates().
	Rates []float64
	// Faults is the optional fault-schedule axis. Empty means a single
	// implicit fault-free entry whose cells are key-compatible with
	// matrices that predate the axis (and with explicit "none" entries).
	Faults []FaultFactory
	// Base supplies fidelity knobs (cycle budgets, VC counts, bandwidth);
	// its Topo/Routing/VC/Pattern/InjectionRate/Seed fields are
	// overridden per cell. Setting Base.CollectEnergy fills every cell's
	// energy columns (avg power, dynamic pJ per delivered flit).
	Base Config
	// Seed is the matrix-level seed; cell i simulates with
	// Seed + i*7919 where i is the cell's fixed matrix position.
	Seed int64

	// Ctx, when non-nil, cancels the run: the worker pool checks it
	// before starting each cell, so a cancelled matrix stops simulating
	// within at most one in-flight cell per worker and RunMatrix returns
	// the context's error. Cells already computed by a store-backed run
	// have been persisted — a re-run resumes from them. Cancellation
	// never changes emitted bytes: a run either completes (identical to
	// an uncancelled run) or errors.
	Ctx context.Context

	// Progress, when non-nil, is invoked once per resolved cell (whether
	// simulated or served from the store) with the number of resolved
	// cells so far and the total cell count. Calls arrive concurrently
	// from the worker pool: done values may repeat or arrive out of
	// order (consumers should keep a running max; a done == total call
	// is guaranteed on completion), and the callback must be cheap and
	// safe for concurrent use.
	Progress func(done, total int)

	// Store, when non-nil, content-addresses every cell: results are
	// looked up before simulating and persisted after, so an
	// interrupted run resumed with the same Store recomputes only the
	// missing cells and reproduces the uninterrupted output byte for
	// byte.
	Store *store.Store
	// Shard, when enabled (Count > 1), restricts simulation to the
	// cells this shard owns (deterministic i % Count == Index
	// partitioning, independent of GOMAXPROCS). Sharded runs require a
	// Store: owned cells are persisted there, and the full matrix is
	// assembled from it once every shard has run. Until then RunMatrix
	// returns *IncompleteError.
	Shard Shard
}

// MatrixCurve is one (topology, pattern) row of the matrix: its
// latency-vs-injection points plus the derived summary metrics.
type MatrixCurve struct {
	Topology string `json:"topology"`
	Pattern  string `json:"pattern"`
	// Fault names the curve's fault schedule; empty when the matrix has
	// no fault axis (keeping the emitted JSON shape of fault-free
	// matrices unchanged).
	Fault  string       `json:"fault,omitempty"`
	Points []SweepPoint `json:"points"`
	// ZeroLoadLatencyNs is the latency at the lowest offered rate;
	// SaturationPerNs the highest pre-saturation accepted throughput
	// (packets/node/ns).
	ZeroLoadLatencyNs float64 `json:"zero_load_latency_ns"`
	SaturationPerNs   float64 `json:"saturation_pkt_node_ns"`
}

// MatrixResult is the full scenario matrix, ordered topology-major then
// pattern (the Setups/Patterns input order).
type MatrixResult struct {
	Rates  []float64     `json:"rates"`
	Curves []MatrixCurve `json:"curves"`
	// Stats reports the simulated/cached split of a store-backed run.
	// It is excluded from JSON so cached, resumed and fresh runs emit
	// byte-identical files.
	Stats MatrixStats `json:"-"`
}

// Curve returns the first row for a topology/pattern name pair (the
// fault-free row when the matrix has no fault axis; otherwise the row
// of the first configured fault entry).
func (m *MatrixResult) Curve(topology, pattern string) *MatrixCurve {
	for i := range m.Curves {
		if m.Curves[i].Topology == topology && m.Curves[i].Pattern == pattern {
			return &m.Curves[i]
		}
	}
	return nil
}

// FaultCurve returns the row for a topology/pattern/fault name triple.
func (m *MatrixResult) FaultCurve(topology, pattern, faultName string) *MatrixCurve {
	for i := range m.Curves {
		c := &m.Curves[i]
		if c.Topology == topology && c.Pattern == pattern && c.Fault == faultName {
			return c
		}
	}
	return nil
}

// Fidelity presets shared by the matrix front ends (netbench -matrix,
// netsmith serve). The budgets are hashed into every cell's cache key,
// so front ends sharing a store MUST take them from here: a drifted
// copy would silently stop cache-sharing between CLI and HTTP runs.
const (
	FidelitySmoke = "smoke" // minimal budgets (CI smoke)
	FidelityFast  = "fast"  // reduced fidelity (default for matrices)
	FidelityFull  = "full"  // simulator defaults (tightest numbers)
)

// ApplyFidelity sets the preset cycle budgets on cfg; FidelityFull
// leaves the simulator defaults in place.
func ApplyFidelity(cfg *Config, name string) error {
	switch name {
	case FidelitySmoke:
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 800, 1600
	case FidelityFast:
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1500, 4000, 6000
	case FidelityFull:
		// defaulted() fills the full-fidelity budgets.
	default:
		return fmt.Errorf("sim: unknown fidelity %q (want %s, %s or %s)",
			name, FidelitySmoke, FidelityFast, FidelityFull)
	}
	return nil
}

// cellPoint derives a cell's sweep point from its run result — the one
// conversion both fresh and cached cells go through, keeping their
// emitted bytes identical.
func cellPoint(rate float64, res *Result) SweepPoint {
	p := SweepPoint{
		OfferedRate:       rate,
		AvgLatencyNs:      res.AvgLatencyNs,
		AcceptedPerNs:     res.AcceptedPerNs,
		Stalled:           res.Stalled,
		DeliveredFraction: res.DeliveredFraction,
		DroppedFlits:      res.DroppedFlits,
	}
	if res.PreFaultAvgLatencyNs > 0 && res.PostFaultAvgLatencyNs > 0 {
		p.LatencyInflation = res.PostFaultAvgLatencyNs / res.PreFaultAvgLatencyNs
	}
	p.energize(res)
	return p
}

// RunMatrix simulates every {topology x pattern x rate} cell on a
// bounded worker pool and derives per-curve saturation. Results are
// deterministic for a given config at any GOMAXPROCS.
//
// With a Store attached, cells hit the cache before simulating and
// persist after (the resume path); a cached result that does not fit
// its cell is a miss, recomputed and overwritten. With Shard enabled,
// only owned cells are simulated; the rest are read from the store, and
// if any are still missing the run returns *IncompleteError after
// persisting its own share.
func RunMatrix(mc MatrixConfig) (*MatrixResult, error) {
	if len(mc.Setups) == 0 || len(mc.Patterns) == 0 {
		return nil, fmt.Errorf("sim: matrix needs at least one topology and one pattern")
	}
	if err := mc.Shard.validate(); err != nil {
		return nil, err
	}
	if mc.Shard.enabled() && mc.Store == nil {
		return nil, fmt.Errorf("sim: sharded matrix runs need a Store to merge through")
	}
	rates := mc.Rates
	if rates == nil {
		rates = DefaultRates()
	}
	faults := mc.Faults
	if len(faults) == 0 {
		// Implicit fault-free axis: empty Name keeps the emitted curves
		// shaped exactly like pre-fault-axis matrices, empty Key keeps
		// their cells cache-compatible.
		faults = []FaultFactory{{
			New: func(*topo.Topology) (*fault.Schedule, error) { return &fault.Schedule{}, nil },
		}}
	}
	nT, nP, nF, nR := len(mc.Setups), len(mc.Patterns), len(faults), len(rates)
	cells := nT * nP * nF * nR
	points := make([]SweepPoint, cells)
	have := make([]bool, cells)
	errs := make([]error, cells)

	// Fault schedules are built once per (setup, fault) pair, up front:
	// builders are cheap and deterministic, and eager building surfaces
	// bad specs before any cell simulates.
	scheds := make([]*fault.Schedule, nT*nF)
	for ti, st := range mc.Setups {
		for fi, ff := range faults {
			s, err := ff.New(st.Topo)
			if err != nil {
				return nil, fmt.Errorf("sim: fault %q on %s: %w", ff.Name, st.Topo.Name, err)
			}
			scheds[ti*nF+fi] = s
			if mc.Store != nil && ff.Key == "" && !s.Empty() {
				return nil, fmt.Errorf("sim: fault factory %q needs a content Key for store-backed runs (see fault.ScheduleKey) — a keyless lossy schedule would collide with fault-free cached cells", ff.Name)
			}
		}
	}

	// Setup fingerprints anchor every cell key; compute each once.
	var fps []string
	if mc.Store != nil {
		for _, f := range mc.Patterns {
			if f.Key == "" {
				return nil, fmt.Errorf("sim: pattern factory %q needs a content Key for store-backed runs (RegistryFactory keys a registry pattern by spec.Key; a trace replay keys on a hash of its bytes)", f.Name)
			}
		}
		fps = make([]string, nT)
		for i, st := range mc.Setups {
			fp, err := st.Fingerprint()
			if err != nil {
				return nil, err
			}
			fps[i] = fp
		}
	}
	// idx decodes cell i's fixed matrix position: topology-major, then
	// pattern, then fault, then rate. With no fault axis (nF == 1) this
	// reduces to the pre-axis layout, preserving per-cell seeds.
	idx := func(i int) (ti, pi, fi, ri int) {
		ri = i % nR
		fi = (i / nR) % nF
		pi = (i / (nR * nF)) % nP
		ti = i / (nR * nF * nP)
		return
	}
	// baseCfg assembles cell i's Config sans Pattern; keyFor canonical-
	// izes it (normalized knobs, no workload instance needed).
	baseCfg := func(ti, fi, ri, i int) Config {
		cfg := mc.Base
		cfg.Topo = mc.Setups[ti].Topo
		cfg.Routing = mc.Setups[ti].Routing
		cfg.VC = mc.Setups[ti].VC
		cfg.InjectionRate = rates[ri]
		cfg.Seed = mc.Seed + int64(i)*7919
		cfg.FaultSchedule = scheds[ti*nF+fi]
		return cfg
	}
	keyFor := func(i int) store.Key {
		ti, pi, fi, ri := idx(i)
		return cellKey(fps[ti], mc.Patterns[pi].Key, faults[fi].Key, baseCfg(ti, fi, ri, i).normalized())
	}

	// Progress is derived from the two existing counters rather than a
	// dedicated one: an extra captured atomic (or a reporting closure)
	// costs a heap allocation the Progress-free path must not pay (the
	// bench gate counts allocs/op).
	var computed, cacheHits, storeErrs atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	if workers > cells {
		workers = cells
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Batched execution: each worker keeps one engine and
			// resets it per cell, rebuilding only on a topology change.
			// The atomic counter hands out cells in index order and the
			// layout is topology-major, so consecutive cells nearly
			// always share their geometry.
			var eng *engine
			for {
				i := int(next.Add(1)) - 1
				if i >= cells {
					return
				}
				// Cancellation is cell-granular: the check sits before
				// each cell's work, so a cancelled run stops after at
				// most one in-flight cell per worker.
				if mc.Ctx != nil && mc.Ctx.Err() != nil {
					return
				}
				if !mc.Shard.Owns(i) {
					continue // filled from the store after the pool drains
				}
				ti, pi, fi, ri := idx(i)
				var key store.Key
				if mc.Store != nil {
					key = keyFor(i)
					var cached Result
					hit, err := mc.Store.Get(key, &cached)
					if err != nil {
						errs[i] = err
						continue
					}
					if hit && cached.fits(rates[ri], mc.Base.CollectEnergy) {
						points[i] = cellPoint(rates[ri], &cached)
						have[i] = true
						cacheHits.Add(1)
						if mc.Progress != nil {
							mc.Progress(int(computed.Load()+cacheHits.Load()), cells)
						}
						continue
					}
				}
				pat, err := mc.Patterns[pi].New()
				if err != nil {
					errs[i] = fmt.Errorf("pattern %s: %w", mc.Patterns[pi].Name, err)
					continue
				}
				cfg := baseCfg(ti, fi, ri, i)
				cfg.Pattern = pat
				res, err := runReused(&eng, cfg)
				if err != nil {
					errs[i] = fmt.Errorf("%s/%s@%g: %w", cfg.Topo.Name, mc.Patterns[pi].Name, rates[ri], err)
					continue
				}
				points[i] = cellPoint(rates[ri], res)
				have[i] = true
				computed.Add(1)
				if mc.Progress != nil {
					mc.Progress(int(computed.Load()+cacheHits.Load()), cells)
				}
				if mc.Store != nil {
					// Persistence is best-effort: a full or read-only
					// store must not discard a computed result. The
					// failure is surfaced through Stats.StoreErrors.
					if err := mc.Store.Put(key, res); err != nil {
						storeErrs.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if mc.Ctx != nil && mc.Ctx.Err() != nil {
		// Cancelled: owned cells that finished before the cancellation
		// were persisted (store-backed runs), so a resumed run picks up
		// exactly where this one stopped.
		return nil, fmt.Errorf("sim: matrix cancelled after %d of %d cells: %w",
			int(computed.Load()+cacheHits.Load()), cells, mc.Ctx.Err())
	}

	// Sharded runs: pull the other shards' cells out of the store.
	missing := 0
	if mc.Shard.enabled() {
		for i := 0; i < cells; i++ {
			if have[i] {
				continue
			}
			var cached Result
			hit, err := mc.Store.Get(keyFor(i), &cached)
			if err != nil {
				return nil, err
			}
			if !hit || !cached.fits(rates[i%nR], mc.Base.CollectEnergy) {
				missing++
				continue
			}
			points[i] = cellPoint(rates[i%nR], &cached)
			have[i] = true
			cacheHits.Add(1)
			if mc.Progress != nil {
				mc.Progress(int(computed.Load()+cacheHits.Load()), cells)
			}
		}
	}
	if missing > 0 {
		return nil, &IncompleteError{
			Shard: mc.Shard, Cells: cells,
			Computed: int(computed.Load()), CacheHits: int(cacheHits.Load()),
			Missing: missing,
		}
	}

	out := &MatrixResult{
		Rates:  rates,
		Curves: make([]MatrixCurve, 0, nT*nP*nF),
		Stats: MatrixStats{
			Cells:    cells,
			Computed: int(computed.Load()), CacheHits: int(cacheHits.Load()),
			StoreErrors: int(storeErrs.Load()),
		},
	}
	for ti := 0; ti < nT; ti++ {
		for pi := 0; pi < nP; pi++ {
			for fi := 0; fi < nF; fi++ {
				base := ((ti*nP+pi)*nF + fi) * nR
				c := MatrixCurve{
					Topology: mc.Setups[ti].Topo.Name,
					Pattern:  mc.Patterns[pi].Name,
					Fault:    faults[fi].Name,
					Points:   points[base : base+nR : base+nR],
				}
				c.ZeroLoadLatencyNs, c.SaturationPerNs = deriveSaturation(c.Points)
				out.Curves = append(out.Curves, c)
			}
		}
	}
	return out, nil
}
