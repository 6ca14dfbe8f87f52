package fullsys

import (
	"math/rand"
	"sort"

	"netsmith/internal/sim"
	"netsmith/internal/traffic"
)

// Benchmark is a trace-parameterized PARSEC workload. The parameters are
// synthetic equivalents distilled from the PARSEC characterization
// (Bienia et al., PACT 2008) at 64 threads with multi-megabyte last-level
// caches: L2MPKI is the L2 miss intensity (misses per kilo-instruction,
// which scales network load), CoherenceFrac the fraction of network
// traffic that is core-to-core coherence rather than memory
// request/reply, and IPC the cores' base instructions per cycle when the
// network is ideal.
type Benchmark struct {
	Name          string
	L2MPKI        float64
	CoherenceFrac float64
	IPC           float64
}

// Benchmarks returns the 12 PARSEC workloads the paper simulates (all
// except vips), in increasing order of L2 misses per instruction — the
// X-axis order of Figure 8.
func Benchmarks() []Benchmark {
	b := []Benchmark{
		{Name: "swaptions", L2MPKI: 0.4, CoherenceFrac: 0.30, IPC: 1.6},
		{Name: "blackscholes", L2MPKI: 0.7, CoherenceFrac: 0.25, IPC: 1.5},
		{Name: "bodytrack", L2MPKI: 1.5, CoherenceFrac: 0.40, IPC: 1.3},
		{Name: "freqmine", L2MPKI: 2.2, CoherenceFrac: 0.35, IPC: 1.2},
		{Name: "raytrace", L2MPKI: 2.8, CoherenceFrac: 0.30, IPC: 1.2},
		{Name: "x264", L2MPKI: 3.6, CoherenceFrac: 0.45, IPC: 1.1},
		{Name: "fluidanimate", L2MPKI: 4.5, CoherenceFrac: 0.50, IPC: 1.0},
		{Name: "ferret", L2MPKI: 5.5, CoherenceFrac: 0.40, IPC: 1.0},
		{Name: "dedup", L2MPKI: 7.0, CoherenceFrac: 0.45, IPC: 0.9},
		{Name: "facesim", L2MPKI: 8.5, CoherenceFrac: 0.40, IPC: 0.9},
		{Name: "streamcluster", L2MPKI: 11.0, CoherenceFrac: 0.55, IPC: 0.8},
		{Name: "canneal", L2MPKI: 15.0, CoherenceFrac: 0.50, IPC: 0.7},
	}
	sort.Slice(b, func(i, j int) bool { return b[i].L2MPKI < b[j].L2MPKI })
	return b
}

// workloadPattern mixes coherence (core-to-core) and memory
// (core-to-MC request/reply) traffic per the benchmark's split.
type workloadPattern struct {
	bench Benchmark
	cores []int
	mcs   []int
	isMC  map[int]bool
}

// NewWorkload builds the benchmark's traffic pattern for a system.
func (s *System) NewWorkload(b Benchmark) traffic.Pattern {
	isMC := make(map[int]bool, len(s.MCRouters))
	for _, m := range s.MCRouters {
		isMC[m] = true
	}
	return &workloadPattern{bench: b, cores: s.CoreRouters, mcs: s.MCRouters, isMC: isMC}
}

// Name implements traffic.Pattern.
func (w *workloadPattern) Name() string { return "parsec/" + w.bench.Name }

// Inject implements traffic.Pattern: only cores inject; a coin weighted
// by CoherenceFrac picks coherence (uniform core target, mixed size) or a
// memory read request (control packet to a uniform MC). Coherence
// targets exclude src itself so an originating core injects on every
// opportunity (the Pattern contract: ok=false is reserved for sources
// that inject nothing, not a random drop).
func (w *workloadPattern) Inject(src int, rng *rand.Rand) (int, int, bool) {
	if !w.Originates(src) {
		return 0, 0, false
	}
	if rng.Float64() < w.bench.CoherenceFrac {
		for i := range w.cores {
			if w.cores[i] == src {
				j := rng.Intn(len(w.cores) - 1)
				if j >= i {
					j++
				}
				flits := traffic.ControlFlits
				if rng.Intn(2) == 0 {
					flits = traffic.DataFlits
				}
				return w.cores[j], flits, true
			}
		}
	}
	return w.mcs[rng.Intn(len(w.mcs))], traffic.ControlFlits, true
}

// Originates implements traffic.Pattern: cores originate, MC and NoI
// routers only forward or reply.
func (w *workloadPattern) Originates(src int) bool {
	return src >= coreBase && !w.isMC[src] && len(w.cores) > 1 && len(w.mcs) > 0
}

// OnDeliver implements traffic.Pattern: MC routers answer requests with
// data replies.
func (w *workloadPattern) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) {
	if w.isMC[dst] {
		return src, traffic.DataFlits, true
	}
	return 0, 0, false
}

// ExecModel converts measured network latency into execution-time terms.
type ExecModel struct {
	// BaseCPI is the core CPI with an ideal (zero-latency) network.
	BaseCPI float64
	// Exposure is the fraction of miss latency that stalls the core
	// (the rest overlaps via memory-level parallelism).
	Exposure float64
	// MemLatencyCycles is the DRAM access time added to network latency
	// on memory misses (in core cycles).
	MemLatencyCycles float64
}

// DefaultExecModel matches a 4-wide OoO core with moderate MLP.
func DefaultExecModel() ExecModel {
	return ExecModel{BaseCPI: 0.55, Exposure: 0.70, MemLatencyCycles: 110}
}

// WorkloadResult is one benchmark x topology measurement.
type WorkloadResult struct {
	Benchmark   Benchmark
	Topology    string
	AvgPacketNs float64
	// CPI is the modelled cycles per instruction; Speedup and
	// LatencyReduction are filled in relative to a baseline (mesh).
	CPI              float64
	Speedup          float64
	LatencyReduction float64
	// NetPowerMW is the combined network's measured average power over
	// the run (dynamic + leakage) and NetEnergyPerFlitPJ the dynamic
	// energy per delivered flit, from the engine's activity counters.
	NetPowerMW         float64
	NetEnergyPerFlitPJ float64
}

// InjectionRate converts the benchmark's miss intensity into offered
// packets per core per cycle: misses/instr x instr/cycle x ~2 packets
// per miss transaction (request + reply or coherence round trip).
func (b Benchmark) InjectionRate() float64 {
	return b.L2MPKI / 1000 * b.IPC * 2
}

// RunWorkload simulates the benchmark on this system and applies the
// execution model.
func (s *System) RunWorkload(b Benchmark, m ExecModel, seed int64, fast bool) (*WorkloadResult, error) {
	cfg := s.SimConfig(s.NewWorkload(b), b.InjectionRate(), seed)
	cfg.CollectEnergy = true
	if fast {
		cfg.WarmupCycles = 1500
		cfg.MeasureCycles = 4000
		cfg.DrainCycles = 8000
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	netCycles := res.AvgLatencyNs * NoCClockGHz // core cycles per packet
	// A miss transaction crosses the network twice (request + reply);
	// memory misses additionally pay DRAM latency. Coherence misses are
	// served by a remote core's cache.
	memFrac := 1 - b.CoherenceFrac
	missLatency := 2*netCycles + memFrac*m.MemLatencyCycles
	cpi := b.IPCtoCPI() + b.L2MPKI/1000*m.Exposure*missLatency
	out := &WorkloadResult{
		Benchmark:   b,
		Topology:    s.NoI.Name,
		AvgPacketNs: res.AvgLatencyNs,
		CPI:         cpi,
	}
	if res.Energy != nil {
		out.NetPowerMW = res.Energy.AvgTotalMW
		out.NetEnergyPerFlitPJ = res.Energy.PerFlitPJ()
	}
	return out, nil
}

// IPCtoCPI returns the benchmark's ideal-network CPI.
func (b Benchmark) IPCtoCPI() float64 { return 1 / b.IPC }
