package synth

import (
	"encoding/json"

	"netsmith/internal/layout"
	"netsmith/internal/store"
	"netsmith/internal/topo"
)

// Synthesis caching. Fixed-budget Generate is deterministic — same
// Config, same topology, bit for bit, at any GOMAXPROCS (pinned by the
// determinism tests) — so a (config, seed) pair content-addresses its
// Result. Time-budgeted runs are NOT deterministic (the wall clock
// decides how far the search gets) and are never cached.

// synthPayload is the canonical request description hashed into a
// synthesis cache key: every Config field that influences the chosen
// topology. Weights are included verbatim (row-major JSON); Progress
// and TimeBudget are excluded — the former cannot affect the result,
// the latter makes a run uncacheable.
type synthPayload struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// PitchMM scales every wire length, and with it the energy-proxy
	// objective — two grids differing only in pitch synthesize
	// different topologies under EnergyWeight.
	PitchMM      float64     `json:"pitch_mm"`
	Class        string      `json:"class"`
	Objective    string      `json:"objective"`
	Radix        int         `json:"radix"`
	Symmetric    bool        `json:"symmetric"`
	MaxDiameter  int         `json:"max_diameter"`
	MinCutBW     float64     `json:"min_cut_bw"`
	Weights      [][]float64 `json:"weights,omitempty"`
	EnergyWeight float64     `json:"energy_weight"`
	RobustWeight float64     `json:"robust_weight"`
	Seed         int64       `json:"seed"`
	Iterations   int         `json:"iterations"`
	Restarts     int         `json:"restarts"`
	// Population/Generations select population mode; omitempty keeps
	// every pre-population cache key byte-identical. Config.Store is
	// deliberately absent: it is a mechanism, not an input — results
	// are bit-identical with or without it.
	Population  int `json:"population,omitempty"`
	Generations int `json:"generations,omitempty"`
}

// payload canonicalizes the config into its cache-key description. ok
// is false when the run is not cacheable (time-budgeted searches stop
// on the wall clock, so their outcome is not a function of the config).
// The pareto sweep (exp.ParetoSweep) embeds the same payload — with the
// swept weights zeroed — inside its own frontier key via CachePayload,
// so the two key families cannot drift on what "the same base config"
// means.
func (c Config) payload() (synthPayload, bool) {
	cfg, err := c.withDefaults()
	if err != nil || cfg.TimeBudget > 0 {
		return synthPayload{}, false
	}
	return synthPayload{
		Rows: cfg.Grid.Rows, Cols: cfg.Grid.Cols, PitchMM: cfg.Grid.PitchMM,
		Class:     cfg.Class.String(),
		Objective: cfg.Objective.String(),
		Radix:     cfg.Radix, Symmetric: cfg.Symmetric,
		MaxDiameter: cfg.MaxDiameter, MinCutBW: cfg.MinCutBW,
		Weights: cfg.Weights, EnergyWeight: cfg.EnergyWeight,
		RobustWeight: cfg.RobustWeight,
		Seed:         cfg.Seed, Iterations: cfg.Iterations, Restarts: cfg.Restarts,
		Population: cfg.Population, Generations: cfg.Generations,
	}, true
}

// cacheKey canonicalizes the config into its store key; ok is false
// for uncacheable (time-budgeted) runs.
func (c Config) cacheKey() (store.Key, bool) {
	p, ok := c.payload()
	if !ok {
		return store.Key{}, false
	}
	return store.NewKey("synth", p), true
}

// cachedResult is the stored form of a Result. Trace is deliberately
// dropped: its Elapsed stamps are wall-clock measurements, the one
// non-deterministic part of a fixed-budget run.
type cachedResult struct {
	Topology      *topo.Topology `json:"topology"`
	Objective     float64        `json:"objective"`
	Bound         float64        `json:"bound"`
	Gap           float64        `json:"gap"`
	Optimal       bool           `json:"optimal"`
	EnergyProxy   float64        `json:"energy_proxy"`
	CriticalLinks int            `json:"critical_links"`
	Fragility     int            `json:"fragility"`
}

// result rehydrates the stored form into a caller-facing Result (no
// Trace: cached runs searched nothing).
func (cr cachedResult) result() *Result {
	return &Result{
		Topology:  cr.Topology,
		Objective: cr.Objective,
		Bound:     cr.Bound,
		Gap:       cr.Gap,
		Optimal:   cr.Optimal, EnergyProxy: cr.EnergyProxy,
		CriticalLinks: cr.CriticalLinks, Fragility: cr.Fragility,
	}
}

// Normalized returns the config with package defaults applied — the
// exact form the cache key hashes and Generate executes. Orchestrators
// building derived artifacts (exp's pareto sweep) use it to read the
// defaulted grid/class/objective/seed without re-deriving defaults.
func (c Config) Normalized() (Config, error) {
	return c.withDefaults()
}

// CachePayload returns the canonical cache-key description of the
// config as marshaled JSON, for embedding in higher-level store keys
// (the pareto frontier key wraps it). ok is false for uncacheable
// (time-budgeted or invalid) configs.
func (c Config) CachePayload() (json.RawMessage, bool) {
	p, ok := c.payload()
	if !ok {
		return nil, false
	}
	b, err := json.Marshal(p)
	if err != nil {
		return nil, false
	}
	return b, true
}

// Probe checks the store for an already-synthesized result without
// ever searching. The pareto sweep uses it for sweep points owned by
// other shards: present means that shard (or a prior run) finished the
// point, absent means the frontier cannot be assembled yet.
func Probe(st *store.Store, c Config) (*Result, bool) {
	if st == nil {
		return nil, false
	}
	key, ok := c.cacheKey()
	if !ok {
		return nil, false
	}
	return lookup(st, key, c)
}

// lookup reads the config's stored result. A blob whose topology is
// missing, or is not on the config's grid and class, is a miss like an
// unreadable one, so CachedGenerate recomputes and overwrites it. The
// grid is checked before the topology is built, so a corrupt blob
// cannot make the decoder allocate for some other grid.
func lookup(st *store.Store, key store.Key, c Config) (*Result, bool) {
	var value json.RawMessage
	if hit, err := st.Get(key, &value); err != nil || !hit {
		return nil, false
	}
	var head struct {
		Topology *struct {
			Rows int `json:"rows"`
			Cols int `json:"cols"`
		} `json:"topology"`
	}
	if json.Unmarshal(value, &head) != nil || head.Topology == nil ||
		head.Topology.Rows != c.Grid.Rows || head.Topology.Cols != c.Grid.Cols {
		return nil, false
	}
	var cached cachedResult
	if json.Unmarshal(value, &cached) != nil || cached.Topology == nil || cached.Topology.Class != c.Class {
		return nil, false
	}
	return cached.result(), true
}

// MatrixNSConfig is the fixed-budget LatOp config the matrix front
// ends (netbench -matrix, netsmith serve) use for the synthesized
// "ns" topology. It is shared for the same reason as sim's fidelity
// presets: the config determines the topology, the topology fingerprint
// anchors every cell cache key, so front ends sharing a store must
// build the exact same config or cache-sharing silently breaks.
func MatrixNSConfig(g *layout.Grid, cl layout.Class, energyWeight, robustWeight float64, seed int64, iterations, population, generations int) Config {
	return Config{
		Grid: g, Class: cl, Objective: LatOp,
		EnergyWeight: energyWeight, RobustWeight: robustWeight,
		Seed: seed, Iterations: iterations, Restarts: 4,
		Population: population, Generations: generations,
	}
}

// CachedGenerate is Generate behind the content-addressed store: a hit
// returns the previously synthesized topology without searching, a
// miss runs Generate and persists the outcome. The returned bool
// reports whether the result came from the cache. Cached results carry
// no Trace and fire no Progress callbacks (nothing was searched); a
// nil store or an uncacheable config (TimeBudget > 0) falls through to
// a plain Generate.
func CachedGenerate(st *store.Store, c Config) (*Result, bool, error) {
	if st == nil {
		res, err := Generate(c)
		return res, false, err
	}
	// Population mode additionally caches its portfolio members through
	// Config.Store, even when the final result itself is uncacheable
	// (TimeBudget runs still reuse deterministic members).
	c.Store = st
	key, ok := c.cacheKey()
	if !ok {
		res, err := Generate(c)
		return res, false, err
	}
	if res, hit := lookup(st, key, c); hit {
		return res, true, nil
	}
	res, err := Generate(c)
	if err != nil {
		return nil, false, err
	}
	// Persistence is best-effort: a full or read-only store must not
	// discard a completed search (Get already treats unreadable blobs
	// as misses; write failures degrade the same way).
	_ = st.Put(key, cachedResult{
		Topology:  res.Topology,
		Objective: res.Objective,
		Bound:     res.Bound,
		Gap:       res.Gap,
		Optimal:   res.Optimal, EnergyProxy: res.EnergyProxy,
		CriticalLinks: res.CriticalLinks, Fragility: res.Fragility,
	})
	return res, false, nil
}
