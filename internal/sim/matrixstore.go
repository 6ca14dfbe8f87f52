package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"netsmith/internal/store"
)

// Content addressing for matrix cells. A cell's result is fully
// determined by (prepared network, workload, offered rate, simulator
// knobs, effective seed) — the determinism contract RunMatrix pins by
// test — so that tuple, canonicalized, is the cell's cache key. The
// store schema version rides along inside store.Key, invalidating
// everything on encoding changes.

// Shard selects a deterministic subset of matrix cells: cell i belongs
// to shard Index iff i % Count == Index, where i is the cell's fixed
// (topology-major, then pattern, then rate) matrix position. The
// partition depends only on the matrix shape — never on GOMAXPROCS or
// worker scheduling — so n shard runs over a shared store compose into
// the same matrix an unsharded run produces, byte for byte. The zero
// value means unsharded.
type Shard struct {
	Index int
	Count int
}

func (s Shard) enabled() bool { return s.Count > 1 }

// Owns reports whether the shard is responsible for computing cell i.
func (s Shard) Owns(i int) bool { return !s.enabled() || i%s.Count == s.Index }

// String renders the CLI form, e.g. "0/2"; "" when unsharded.
func (s Shard) String() string {
	if !s.enabled() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

func (s Shard) validate() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("sim: invalid shard %d/%d", s.Index, s.Count)
	}
	if s.enabled() && s.Index >= s.Count {
		return fmt.Errorf("sim: shard index %d out of range 0..%d", s.Index, s.Count-1)
	}
	return nil
}

// ParseShard parses the CLI "i/n" form (e.g. "0/2"). Empty means
// unsharded.
func ParseShard(arg string) (Shard, error) {
	if arg == "" {
		return Shard{}, nil
	}
	is, ns, ok := strings.Cut(arg, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sim: bad shard %q (want i/n, e.g. 0/2)", arg)
	}
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return Shard{}, fmt.Errorf("sim: bad shard %q (want i/n with 0 <= i < n)", arg)
	}
	return Shard{Index: i, Count: n}, nil
}

// Fingerprint returns a stable content hash of the prepared network:
// the topology (canonical JSON), the exact routing table and the VC
// layer assignment. Two Setups with equal fingerprints simulate
// identically, so the fingerprint — not the topology name — anchors
// cell cache keys (the same grid prepared with a different routing seed
// must not collide).
func (s *Setup) Fingerprint() (string, error) {
	h := sha256.New()
	tj, err := json.Marshal(s.Topo)
	if err != nil {
		return "", fmt.Errorf("sim: fingerprint topology: %w", err)
	}
	h.Write(tj)
	fmt.Fprintf(h, "|routing:%s:%d|", s.Routing.Name, s.Routing.N)
	for src, row := range s.Routing.Table {
		for dst, path := range row {
			if path == nil {
				continue
			}
			fmt.Fprintf(h, "%d>%d:", src, dst)
			for _, r := range path {
				fmt.Fprintf(h, "%d,", r)
			}
		}
	}
	fmt.Fprintf(h, "|vc:%d|", s.VC.NumVCs)
	for _, row := range s.VC.LayerOf {
		for _, l := range row {
			fmt.Fprintf(h, "%d,", l)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// linkLatKV is one ExtraLinkLatency entry in canonical (sorted) order.
type linkLatKV struct {
	From  int `json:"from"`
	To    int `json:"to"`
	Extra int `json:"extra"`
}

// cellPayload is the canonical request description hashed into a matrix
// cell's cache key. Every field that influences the cell's Result is
// present; the simulator knobs are recorded post-defaulting so a zero
// Config and an explicit Config with the default values share entries.
// BufDepth, LinkLatency and the port bandwidths record the engine's
// fixed router parameters, so changing any of them moves every key.
type cellPayload struct {
	Setup   string `json:"setup"`
	Pattern string `json:"pattern"`
	// Fault is the canonical fault-schedule key; empty (and omitted, so
	// fault-free payloads keep their original shape) when the cell runs
	// without faults.
	Fault string  `json:"fault,omitempty"`
	Rate  float64 `json:"rate"`
	Seed  int64   `json:"seed"` // effective per-cell seed

	NumVCs          int         `json:"num_vcs"`
	BufDepth        int         `json:"buf_depth"`
	LinkLatency     int         `json:"link_latency"`
	ClockGHz        float64     `json:"clock_ghz"`
	InjectBandwidth int         `json:"inject_bw"`
	EjectBandwidth  int         `json:"eject_bw"`
	WarmupCycles    int         `json:"warmup"`
	MeasureCycles   int         `json:"measure"`
	DrainCycles     int         `json:"drain"`
	CollectEnergy   bool        `json:"collect_energy"`
	NodeRate        []float64   `json:"node_rate,omitempty"`
	ExtraLinkLat    []linkLatKV `json:"extra_link_latency,omitempty"`
}

// cellKey builds the store key for one matrix cell. cfg must be the
// cell's fully defaulted Config (the one Run will execute).
func cellKey(setupFP, patternKey, faultKey string, cfg Config) store.Key {
	p := cellPayload{
		Setup:   setupFP,
		Pattern: patternKey,
		Fault:   faultKey,
		Rate:    cfg.InjectionRate,
		Seed:    cfg.Seed,

		NumVCs:          cfg.NumVCs,
		BufDepth:        bufDepth,
		LinkLatency:     linkLatency,
		ClockGHz:        cfg.ClockGHz,
		InjectBandwidth: portBandwidth,
		EjectBandwidth:  portBandwidth,
		WarmupCycles:    cfg.WarmupCycles,
		MeasureCycles:   cfg.MeasureCycles,
		DrainCycles:     cfg.DrainCycles,
		CollectEnergy:   cfg.CollectEnergy,
		NodeRate:        cfg.NodeRate,
	}
	for k, v := range cfg.ExtraLinkLatency {
		p.ExtraLinkLat = append(p.ExtraLinkLat, linkLatKV{From: k[0], To: k[1], Extra: v})
	}
	sort.Slice(p.ExtraLinkLat, func(i, j int) bool {
		a, b := p.ExtraLinkLat[i], p.ExtraLinkLat[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return store.NewKey("matrix-cell", p)
}

// fits reports whether r, read back from a cell blob, can be the result
// of a cell offered at rate: a finished run records that rate and no
// negative field, and carries an energy report with no negative energy
// exactly when the matrix collects energy; a stalled run is stored as
// the bare Result{Stalled: true}. Anything else (a null or emptied
// value, another cell's result, a negative count, a lost or damaged
// energy report) is damage, so the cell is a miss.
func (r *Result) fits(rate float64, energy bool) bool {
	if r.Stalled {
		return *r == (Result{Stalled: true})
	}
	if (r.Energy != nil) != energy || negative(r.AcceptedPerCycle, r.AcceptedPerNs,
		r.AvgLatencyNs, r.AvgLatencyCycles, r.DeliveredFraction,
		r.PreFaultAvgLatencyNs, r.PostFaultAvgLatencyNs) {
		return false
	}
	if e := r.Energy; e != nil && (negative(e.DurationNs, e.RouterDynPJ, e.WireDynPJ,
		e.DynamicPJ, e.LeakagePJ, e.TotalPJ, e.AvgDynamicMW, e.AvgTotalMW) ||
		negative(e.PerRouterPJ...) || negative(e.PerLinkPJ...)) {
		return false
	}
	for _, v := range [...]int{r.Measured, r.Delivered, r.DroppedFlits, r.DroppedPackets,
		r.RerouteEvents, r.UnreachablePairs, r.SkippedInjections} {
		if v < 0 {
			return false
		}
	}
	return r.OfferedRate == rate
}

// negative reports whether any of vs is below zero.
func negative(vs ...float64) bool {
	for _, v := range vs {
		if v < 0 {
			return true
		}
	}
	return false
}

// IncompleteError reports a sharded RunMatrix that computed and
// persisted every cell it owns but could not assemble the full matrix:
// cells owned by other shards are not yet in the store. Run the
// remaining shards against the same store (or re-run unsharded, which
// resumes from the cached cells) to obtain the merged result.
type IncompleteError struct {
	Shard     Shard
	Cells     int // total matrix cells
	Computed  int // cells this run simulated
	CacheHits int // cells this run served from the store
	Missing   int // cells still absent from the store
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("sim: shard %s complete (%d computed, %d cached of %d cells); %d cells pending from other shards",
		e.Shard, e.Computed, e.CacheHits, e.Cells, e.Missing)
}

// MatrixStats summarizes where a matrix run's cells came from. It is
// excluded from the matrix JSON emission (MatrixResult.Stats is tagged
// json:"-") so cached and fresh runs stay byte-identical; the tags
// here serve consumers that report it separately (the serve API's job
// payload).
type MatrixStats struct {
	Cells     int `json:"cells"`      // total cells in the matrix
	Computed  int `json:"computed"`   // cells simulated by this run
	CacheHits int `json:"cache_hits"` // cells served from the store
	// StoreErrors counts cells whose computed result could not be
	// persisted (full or read-only store). The results themselves are
	// still returned — persistence is best-effort — but those cells
	// will recompute on resume and stay invisible to other shards.
	StoreErrors int `json:"store_errors"`
}
