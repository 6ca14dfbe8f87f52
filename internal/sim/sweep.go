package sim

import (
	"fmt"

	"netsmith/internal/route"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
	"netsmith/internal/vc"
)

// SweepPoint is one (offered rate, latency, accepted throughput) sample.
// The JSON names match the scenario-matrix CSV columns.
type SweepPoint struct {
	OfferedRate   float64 `json:"offered_pkt_node_cycle"` // packets/node/cycle
	AvgLatencyNs  float64 `json:"latency_ns"`
	AcceptedPerNs float64 `json:"accepted_pkt_node_ns"` // packets/node/ns
	Saturated     bool    `json:"saturated"`
	Stalled       bool    `json:"stalled"`
	// Robustness summary. DeliveredFraction mirrors
	// Result.DeliveredFraction (measured deliveries over measured
	// injection attempts; 1.0 for a healthy, unsaturated run).
	// LatencyInflation is the post-fault/pre-fault measured latency
	// ratio (0 when either phase measured nothing, and for fault-free
	// runs); DroppedFlits counts flits purged at fault boundaries.
	DeliveredFraction float64 `json:"delivered_fraction"`
	LatencyInflation  float64 `json:"latency_inflation"`
	DroppedFlits      int     `json:"dropped_flits"`
	// Measured-energy summary (zero unless the run's Config set
	// CollectEnergy): average total power over the run and dynamic energy
	// per delivered flit.
	AvgPowerMW      float64 `json:"avg_power_mw"`
	EnergyPerFlitPJ float64 `json:"energy_per_flit_pj"`
}

// energize fills the point's energy summary from a run result.
func (p *SweepPoint) energize(res *Result) {
	if res.Energy == nil {
		return
	}
	p.AvgPowerMW = res.Energy.AvgTotalMW
	p.EnergyPerFlitPJ = res.Energy.PerFlitPJ()
}

// SweepResult is a latency-vs-injection curve plus derived summary
// metrics (the data behind the paper's Figs. 1, 6, 10 and 11).
type SweepResult struct {
	Topology string
	Pattern  string
	Points   []SweepPoint
	// ZeroLoadLatencyNs is the latency at the lowest offered rate.
	ZeroLoadLatencyNs float64
	// SaturationPerNs is the highest accepted throughput measured before
	// latency exceeds SaturationFactor x zero-load (packets/node/ns).
	SaturationPerNs float64
}

// SaturationFactor defines the latency blow-up treated as saturation.
const SaturationFactor = 5.0

// DefaultRates returns the standard offered-rate grid.
func DefaultRates() []float64 {
	return []float64{0.005, 0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20, 0.24, 0.28, 0.32, 0.38, 0.45}
}

// deriveSaturation marks saturated points in place (latency blow-up past
// SaturationFactor x zero-load, watchdog stalls, or no measured packets)
// and returns the zero-load latency and the highest pre-saturation
// accepted throughput. Points must be in ascending offered-rate order.
func deriveSaturation(points []SweepPoint) (zeroLoadNs, satPerNs float64) {
	if len(points) == 0 {
		return 0, 0
	}
	zeroLoadNs = points[0].AvgLatencyNs
	for i := range points {
		sat := points[i].Stalled ||
			points[i].AvgLatencyNs > SaturationFactor*zeroLoadNs ||
			points[i].Measured() == 0
		points[i].Saturated = sat
		if !sat && points[i].AcceptedPerNs > satPerNs {
			satPerNs = points[i].AcceptedPerNs
		}
	}
	return zeroLoadNs, satPerNs
}

// Measured reports whether the point produced latency data.
func (p SweepPoint) Measured() float64 { return p.AvgLatencyNs }

// Setup bundles the standard preparation pipeline: routing (MCLB or
// NDBT), VC assignment and its deadlock-freedom verification.
type Setup struct {
	Topo    *topo.Topology
	Routing *route.Routing
	VC      *vc.Assignment
}

// RoutingKind selects the routing algorithm for Prepare.
type RoutingKind int

const (
	// UseMCLB applies NetSmith's minimum-max-channel-load routing.
	UseMCLB RoutingKind = iota
	// UseNDBT applies the expert-topology no-double-back-turns
	// heuristic.
	UseNDBT
)

// Prepare builds routing and a verified deadlock-free VC assignment for
// a topology.
func Prepare(t *topo.Topology, kind RoutingKind, seed int64) (*Setup, error) {
	var r *route.Routing
	var err error
	switch kind {
	case UseMCLB:
		r, err = route.MCLB(t, route.MCLBOptions{Seed: seed})
	case UseNDBT:
		r, err = route.NDBT(t, seed)
	default:
		return nil, fmt.Errorf("sim: unknown routing kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	if err := r.Validate(t); err != nil {
		return nil, err
	}
	a, err := vc.Assign(r, vc.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := a.Verify(r); err != nil {
		return nil, err
	}
	return &Setup{Topo: t, Routing: r, VC: a}, nil
}

// Curve runs a saturation sweep for a prepared setup and pattern: a
// one-setup, one-pattern RunMatrix over rates (default DefaultRates()),
// at FidelityFast budgets when fast is set and the simulator defaults
// otherwise. Point i simulates with seed + i*7919. Every point shares
// the one pattern instance, so it must be stateless; stateful patterns
// (bursty, trace replay) go through RunMatrix with a factory.
func (s *Setup) Curve(p traffic.Pattern, rates []float64, fast bool, seed int64) (*SweepResult, error) {
	var base Config
	fidelity := FidelityFull
	if fast {
		fidelity = FidelityFast
	}
	if err := ApplyFidelity(&base, fidelity); err != nil {
		return nil, err
	}
	m, err := RunMatrix(MatrixConfig{
		Setups:   []*Setup{s},
		Patterns: []PatternFactory{{Name: p.Name(), New: func() (traffic.Pattern, error) { return p, nil }}},
		Rates:    rates,
		Base:     base,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	c := m.Curves[0]
	return &SweepResult{
		Topology:          c.Topology,
		Pattern:           c.Pattern,
		Points:            c.Points,
		ZeroLoadLatencyNs: c.ZeroLoadLatencyNs,
		SaturationPerNs:   c.SaturationPerNs,
	}, nil
}
