// Package sim is a flit-level network simulator: input-queued routers
// with per-port virtual channels, credit-based flow control, wormhole
// switching with per-packet VC ownership, round-robin switch allocation,
// table-based (per-flow precomputed path) routing and multi-rate clock
// domains. It substitutes for the paper's gem5 + HeteroGarnet setup; see
// DESIGN.md for the fidelity argument and the engine's data layout.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"netsmith/internal/fault"
	"netsmith/internal/power"
	"netsmith/internal/route"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
	"netsmith/internal/vc"
)

// Config parameterizes one simulation run.
type Config struct {
	Topo    *topo.Topology
	Routing *route.Routing
	VC      *vc.Assignment

	// NumVCs is the physical VC count per input port (paper Table IV: 6
	// total for synthetic runs). Must be >= VC.NumVCs. Default 6.
	NumVCs int
	// BufDepth is the flit capacity of each VC buffer. Default 4.
	BufDepth int
	// LinkLatency is the cycle count from switch allocation to arrival
	// in the downstream buffer (router pipeline + wire). Default 2,
	// matching the paper's 2-cycle router latency.
	LinkLatency int
	// ClockGHz converts cycles to nanoseconds. Default: the topology
	// class clock.
	ClockGHz float64

	// Pattern generates traffic; InjectionRate is offered packets per
	// injecting node per cycle.
	Pattern       traffic.Pattern
	InjectionRate float64

	// InjectBandwidth / EjectBandwidth are flits per node per cycle
	// (default 4 each: the paper's concentration attaches four cores per
	// NoI router, so local ports are not the bottleneck).
	InjectBandwidth int
	EjectBandwidth  int

	// WarmupCycles run before measurement; MeasureCycles are measured;
	// after the measure window the simulation drains up to DrainCycles
	// to collect in-flight measured packets. Defaults 4000/12000/20000.
	WarmupCycles  int
	MeasureCycles int
	DrainCycles   int

	// CollectEnergy enables per-router/per-link activity counters on the
	// hot path (plain uint64 increments; no extra allocations) and fills
	// Result.Energy with the measured-energy report. The counting branches
	// are gated on nil slices, so runs without it pay nothing.
	CollectEnergy bool
	// EnergyModel supplies the technology constants for the energy
	// conversion; nil selects power.Default22nm().
	EnergyModel *power.Model

	// FaultSchedule, when non-empty, deterministically kills links and
	// routers during the run per the schedule's events. At every cycle
	// where the set of dead elements changes the engine performs an
	// epoch flush: all in-flight flits are dropped and counted
	// (modeling the table-update loss window of a programmable data
	// plane), routing is recomputed on the surviving subgraph
	// (route.SurvivorRouting) with a fresh per-epoch VC assignment so
	// each epoch stays deadlock-free, and unreachable flows stop
	// injecting (reported via Result.UnreachablePairs, never wedging
	// the watchdog). Same seed + schedule replays bit-identically.
	// Energy conservation invariants hold only for fault-free runs:
	// dropped flits have buffer writes without matching ejections.
	FaultSchedule *fault.Schedule

	// NodeRate optionally scales each router's service rate relative to
	// the base clock (multi-clock domains); 0 entries default to 1.0. A
	// sub-rate router (0 < rate < 1) ejects and switches only on its
	// service slots: the base cycles on which a per-router accumulator,
	// advanced by rate every cycle, reaches 1. Sub-rate engines use the
	// same event scan and fast-forward as uniform-clock ones.
	NodeRate []float64
	// ExtraLinkLatency adds per-link latency cycles (e.g. CDC
	// crossings), keyed by [from][to]. Nil = none. The engine densifies
	// this into a per-link-ID latency table at setup.
	ExtraLinkLatency map[[2]int]int

	Seed int64
}

// Result summarizes a run.
type Result struct {
	// OfferedRate is packets/node/cycle offered; Accepted is the
	// measured delivery rate in packets/node/cycle and packets/node/ns.
	OfferedRate      float64
	AcceptedPerCycle float64
	AcceptedPerNs    float64
	// AvgLatencyNs is the mean packet latency (generation to tail
	// ejection) over measured packets, in nanoseconds; AvgLatencyCycles
	// the same in cycles.
	AvgLatencyNs     float64
	AvgLatencyCycles float64
	// Measured is the number of packets the latency average covers;
	// Delivered counts all packets ejected in the measure window.
	Measured  int
	Delivered int
	// Stalled is set when the watchdog detected no forward progress
	// (should never happen with verified deadlock-free VC assignments).
	Stalled bool

	// Robustness accounting. DeliveredFraction is filled for every run:
	// measured deliveries over measured injection attempts (1.0 when
	// nothing was offered); it dips below 1 under faults (drops,
	// unreachable flows) and at saturation (drain-cap overruns). The
	// remaining fields stay zero unless Config.FaultSchedule fired.
	DeliveredFraction float64
	// DroppedFlits / DroppedPackets count flits and packets purged at
	// fault boundaries (in-flight worms lost to the reroute flush).
	DroppedFlits   int
	DroppedPackets int
	// RerouteEvents counts fault boundaries at which the alive set
	// actually changed and the engine recomputed routing.
	RerouteEvents int
	// UnreachablePairs is the peak, across epochs, of ordered (src,dst)
	// pairs with no surviving deadlock-free path; such flows stop
	// injecting for the epoch (SkippedInjections counts the attempts).
	UnreachablePairs  int
	SkippedInjections int
	// PreFaultAvgLatencyNs / PostFaultAvgLatencyNs split the measured
	// latency average by whether the packet was generated before or
	// after the first fault onset (both zero without faults).
	PreFaultAvgLatencyNs  float64
	PostFaultAvgLatencyNs float64

	// Energy is the measured-energy report (nil unless
	// Config.CollectEnergy was set).
	Energy *EnergyReport
}

// EnergyReport is the measured-energy outcome of one run: the raw
// activity counters the engine accumulated plus their conversion into
// picojoules via power.Model (dynamic by component, leakage x run
// duration, per-router and per-link breakdowns).
//
// Counter semantics (the conservation invariants pinned by
// TestEnergyConservation):
//
//   - BufWrites[r] counts flits written into router r's VC buffers: one
//     per injection at r plus one per link arrival at r.
//   - BufReads[r] counts flits popped out of router r's buffers — the
//     switch/ejection traversals the router dynamic energy is charged
//     on: one per link departure plus one per local ejection. A flit
//     crossing h links is read h+1 times network-wide.
//   - LinkFlits[id] counts flit crossings of dense directed link id
//     (topo.LinkID order); wire dynamic energy is charged per crossing
//     times the link's length.
//
// At full drain: sum(BufWrites) == InjectedFlits + sum(LinkFlits),
// sum(BufReads) == EjectedFlits + sum(LinkFlits), and InjectedFlits ==
// EjectedFlits == the flit count of every delivered packet.
type EnergyReport struct {
	power.ActivityReport

	BufReads      []uint64
	BufWrites     []uint64
	LinkFlits     []uint64
	InjectedFlits uint64
	EjectedFlits  uint64
}

// PerFlitPJ is the dynamic energy per delivered flit (0 when the run
// delivered nothing) — the single definition behind every
// energy_per_flit_pj column.
func (r *EnergyReport) PerFlitPJ() float64 {
	if r.EjectedFlits == 0 {
		return 0
	}
	return r.DynamicPJ / float64(r.EjectedFlits)
}

type flit struct {
	pkt     *packet
	pathIdx int32 // index of the flit's current router within pkt.path
	isHead  bool
	isTail  bool
}

type packet struct {
	src, dst    int
	flits       int
	layer       int
	path        route.Path
	injectedAt  int64
	measured    bool
	flitsQueued int // flits already pushed into the network
}

type inflight struct {
	f        flit
	arriveAt int64
	slot     int32 // destination VC-buffer slot (reserved at send time)
}

// pktRing is a growable power-of-two ring of queued packets. It replaces
// the leaky q = q[1:] reslice queue: popped slots are reused instead of
// retaining dead prefixes of the backing array.
type pktRing struct {
	q    []*packet
	head int32
	size int32
}

func (r *pktRing) empty() bool    { return r.size == 0 }
func (r *pktRing) front() *packet { return r.q[r.head] }

func (r *pktRing) push(p *packet) {
	if int(r.size) == len(r.q) {
		grown := make([]*packet, max(8, 2*len(r.q)))
		for i := int32(0); i < r.size; i++ {
			grown[i] = r.q[(r.head+i)&int32(len(r.q)-1)]
		}
		r.q = grown
		r.head = 0
	}
	r.q[(r.head+r.size)&int32(len(r.q)-1)] = p
	r.size++
}

func (r *pktRing) pop() *packet {
	p := r.q[r.head]
	r.q[r.head] = nil
	r.head = (r.head + 1) & int32(len(r.q)-1)
	r.size--
	return p
}

// slotWhere sentinel values; non-negative entries are link IDs.
const (
	whereNone  int32 = -1 // buffer empty (or head unroutable)
	whereEject int32 = -2 // head flit is at its final router
)

// engine is the simulation state. All per-(router,port,vc) state lives in
// flat arrays indexed by slot = router*slotsPerRouter + port*numVCs + vc
// (slotsPerRouter = maxPorts*numVCs); all per-link state is indexed by
// the topology's dense directed-link ID. Steady-state cycles allocate
// nothing: VC buffers and link queues are fixed-capacity rings over
// shared backing arrays, and packet objects are pooled per engine.
type engine struct {
	cfg      Config
	n        int
	rng      *rand.Rand
	numVCs   int
	bufDepth int

	// Port geometry: port 0 is injection; ports 1.. map upstream routers
	// in Topo.In order. Phantom slots of routers with fewer than
	// maxPorts ports keep zero credits and are never routed to.
	numPorts       []int32
	maxPorts       int
	slotsPerRouter int
	wordsPerRouter int // occupancy-mask words per router

	// VC buffers: per-slot rings of capacity bufCap (power of two >=
	// BufDepth) over one shared backing array.
	bufCap   int
	bufMask  int32
	bufData  []flit
	bufHead  []int32
	bufCount []int32
	free     []int32   // credit mirror per slot
	owner    []*packet // wormhole VC ownership per slot

	// Head-target tracking. slotWhere[s] records where slot s's head
	// flit wants to go (whereNone, whereEject, or a link ID); ejectMask
	// and candMask mirror it as per-router bitmask words (bit = local
	// slot port*numVCs+vc) so ejection and switch allocation iterate
	// only occupied, correctly-targeted VCs — the bitgraph word-ops
	// idiom applied to switch state.
	slotWhere []int32
	ejectMask []uint64 // [router*wordsPerRouter + w]
	candMask  []uint64 // [linkID*wordsPerRouter + w]

	// Claimed-VC caches: the downstream VC a worm's head picked, reused
	// by its body flits without re-scanning the owner chain. claimVC is
	// keyed by the upstream slot the worm forwards out of, injVC by the
	// source router. Only read for body flits, whose head's claim (same
	// slot / same queue, worms are contiguous) always preceded them;
	// epoch flushes purge partial worms, so stale values are never read.
	claimVC []int8
	injVC   []int8

	// Dense directed links (IDs from topo.LinkID).
	numLinks     int
	linkFrom     []int32
	linkTo       []int32
	linkDownBase []int32 // destination slot base: (to*maxPorts+downPort)*numVCs
	linkLat      []int64 // LinkLatency + ExtraLinkLatency, per link
	linkIDAt     []int32 // n*n lookup (from*n+to) -> link ID, -1 absent

	// Link in-flight queues: per-link rings of capacity lqCap over one
	// shared backing array. At most one flit enters a link per cycle and
	// every flit leaves after exactly linkLat cycles, so occupancy is
	// bounded by maxLat < lqCap.
	lqCap   int
	lqMask  int32
	lqData  []inflight
	lqHead  []int32
	lqCount []int32

	injectQ []pktRing
	rrOut   []int32 // RR scan start per output link (local slot index)
	rrEject []int32

	// Clock domains: slotTab[r] is sub-rate router r's cumulative
	// service-slot table (see slotTable), sized to cover the run's cycle
	// budget; routers of equal rate share one table. Full-rate routers
	// have none.
	slotTab [][]int32

	// Event-driven stepping (see DESIGN.md "Time stepping").
	// lqPending/ejectPending/candPending are one-bit-per-link (resp.
	// per-router) summaries of the occupancy state — a link with
	// in-flight flits, a router with eject-ready heads, a link with
	// switch candidates — so idle elements are never scanned.
	// lastEject/lastOut record the router's slot count when its ejector
	// / a link's switch allocator last ran, letting the +1-per-slot
	// round-robin advance of skipped no-op slots be reconstructed
	// lazily (the property that also makes whole-cycle fast-forward
	// round-robin-exact). queuedPkts counts packets across all
	// injection queues for an O(1) idle check.
	lqPending    []uint64
	ejectPending []uint64
	candPending  []uint64
	lastEject    []int64
	lastOut      []int64
	queuedPkts   int
	replay       *traffic.Replay // the pattern when it is a trace replay
	ffSkipped    int64           // cycles fast-forwarded (stats/tests only)

	pktFree []*packet // packet pool

	// Activity counters (nil unless CollectEnergy): per-router buffer
	// reads/writes, per-link flit crossings, and the injection/ejection
	// totals. Plain uint64 increments on the existing hot-path events —
	// no allocation, no extra passes, gated on a nil check that predicts
	// perfectly when disabled.
	actBufRead   []uint64
	actBufWrite  []uint64
	actLinkFlits []uint64
	actInjected  uint64
	actEjected   uint64

	cycle int64

	// Fault state. routing/vcAssign/escapeVCs are the CURRENT epoch's
	// tables — the Config's own while everything is alive, survivor
	// tables after a fault boundary. escapeVCs is the escape-layer count
	// of the current assignment (adaptive VCs are indices >= escapeVCs).
	// aliveRouter/aliveLinkID track element liveness; boundaries holds
	// the schedule's precomputed alive-set change cycles.
	routing      *route.Routing
	vcAssign     *vc.Assignment
	escapeVCs    int
	aliveRouter  []bool
	aliveLinkID  []bool
	boundaries   []int64
	nextBoundary int
	firstFault   int64 // earliest fault onset cycle; -1 without faults

	// stats and progress tracking. bufferedFlits/linkFlits replace the
	// O(routers*ports*VCs) networkEmpty scan.
	bufferedFlits       int
	linkFlits           int
	delivered, measured int
	measuredInFlight    int
	latencySum          int64
	forwardedThisCycle  bool

	// fault stats
	droppedFlits    int
	droppedPackets  int
	rerouteEvents   int
	peakUnreachable int
	skippedInject   int
	measuredOffered int
	preLatSum       int64
	postLatSum      int64
	preMeasured     int
	postMeasured    int
}

// normalized applies the default knob values. It is pattern-independent
// (only Topo is consulted, for the class clock), which lets the matrix
// cell cache keys canonicalize a Config without building its workload.
func (c Config) normalized() Config {
	cfg := c
	if cfg.NumVCs == 0 {
		cfg.NumVCs = 6
	}
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 4
	}
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = 2
	}
	if cfg.ClockGHz == 0 && cfg.Topo != nil {
		cfg.ClockGHz = cfg.Topo.Class.ClockGHz()
	}
	if cfg.InjectBandwidth == 0 {
		cfg.InjectBandwidth = 4
	}
	if cfg.EjectBandwidth == 0 {
		cfg.EjectBandwidth = 4
	}
	if cfg.WarmupCycles == 0 {
		cfg.WarmupCycles = 4000
	}
	if cfg.MeasureCycles == 0 {
		cfg.MeasureCycles = 12000
	}
	if cfg.DrainCycles == 0 {
		cfg.DrainCycles = 20000
	}
	return cfg
}

func defaulted(cfg Config) (Config, error) {
	if cfg.Topo == nil || cfg.Routing == nil || cfg.VC == nil || cfg.Pattern == nil {
		return cfg, errors.New("sim: Topo, Routing, VC and Pattern are required")
	}
	cfg = cfg.normalized()
	if cfg.NumVCs < cfg.VC.NumVCs {
		return cfg, fmt.Errorf("sim: %d physical VCs < %d assigned layers", cfg.NumVCs, cfg.VC.NumVCs)
	}
	return cfg, nil
}

// Run executes the simulation and returns aggregate statistics.
func Run(c Config) (*Result, error) {
	cfg, err := defaulted(c)
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg)
	return e.run()
}

// runReused executes cfg on the cached engine in *slot, rebuilding it
// only when the geometry changed (different topology or sizing knobs)
// and resetting it otherwise. This is the batched matrix-cell path:
// consecutive cells of one prepared topology skip the port-map,
// flat-array and link-table construction. Results are bit-identical
// to Run's.
func runReused(slot **engine, c Config) (*Result, error) {
	cfg, err := defaulted(c)
	if err != nil {
		return nil, err
	}
	if *slot == nil || !(*slot).compatible(cfg) {
		*slot = newEngine(cfg)
	} else {
		(*slot).reset(cfg)
	}
	return (*slot).run()
}

// pow2 returns the smallest power of two >= v (and >= 1).
func pow2(v int) int {
	c := 1
	for c < v {
		c <<= 1
	}
	return c
}

// newEngine allocates the geometry-sized state for cfg and resets it
// for a run. The split between allocation (here) and per-run state
// (reset) is what batched matrix execution reuses: cells sharing a
// prepared topology rebuild only the run state.
func newEngine(cfg Config) *engine {
	n := cfg.Topo.N()
	e := &engine{
		n:        n,
		numVCs:   cfg.NumVCs,
		bufDepth: cfg.BufDepth,
		numPorts: make([]int32, n),
		slotTab:  make([][]int32, n),
	}
	// Port geometry. portOf is setup-only: the per-link downstream port
	// is densified into linkDownBase below.
	portOf := make([]map[int]int, n)
	maxPorts := 1
	for r := 0; r < n; r++ {
		portOf[r] = map[int]int{}
		ports := 1 // injection port
		for _, u := range cfg.Topo.In(r) {
			portOf[r][u] = ports
			ports++
		}
		e.numPorts[r] = int32(ports)
		if ports > maxPorts {
			maxPorts = ports
		}
	}
	e.maxPorts = maxPorts
	e.slotsPerRouter = maxPorts * e.numVCs
	e.wordsPerRouter = (e.slotsPerRouter + 63) / 64

	totalSlots := n * e.slotsPerRouter
	e.bufCap = pow2(e.bufDepth)
	e.bufMask = int32(e.bufCap - 1)
	e.bufData = make([]flit, totalSlots*e.bufCap)
	e.bufHead = make([]int32, totalSlots)
	e.bufCount = make([]int32, totalSlots)
	e.free = make([]int32, totalSlots)
	e.owner = make([]*packet, totalSlots)
	e.slotWhere = make([]int32, totalSlots)
	e.claimVC = make([]int8, totalSlots)
	e.injVC = make([]int8, n)
	e.ejectMask = make([]uint64, n*e.wordsPerRouter)
	e.ejectPending = make([]uint64, (n+63)/64)
	e.lastEject = make([]int64, n)

	// Dense links.
	L := cfg.Topo.NumDirectedLinks()
	e.numLinks = L
	e.linkFrom = make([]int32, L)
	e.linkTo = make([]int32, L)
	e.linkDownBase = make([]int32, L)
	e.linkLat = make([]int64, L)
	e.linkIDAt = make([]int32, n*n)
	for i := range e.linkIDAt {
		e.linkIDAt[i] = -1
	}
	maxLat := int64(cfg.LinkLatency)
	for id := 0; id < L; id++ {
		l := cfg.Topo.LinkByID(id)
		e.linkFrom[id] = int32(l.From)
		e.linkTo[id] = int32(l.To)
		e.linkDownBase[id] = int32((l.To*e.maxPorts + portOf[l.To][l.From]) * e.numVCs)
		e.linkIDAt[l.From*n+l.To] = int32(id)
		lat := int64(cfg.LinkLatency)
		if cfg.ExtraLinkLatency != nil {
			lat += int64(cfg.ExtraLinkLatency[[2]int{l.From, l.To}])
		}
		e.linkLat[id] = lat
		if lat > maxLat {
			maxLat = lat
		}
	}
	e.candMask = make([]uint64, L*e.wordsPerRouter)
	e.candPending = make([]uint64, (L+63)/64)
	e.lqPending = make([]uint64, (L+63)/64)
	e.rrOut = make([]int32, L)
	e.lastOut = make([]int64, L)

	e.lqCap = pow2(int(maxLat) + 1)
	e.lqMask = int32(e.lqCap - 1)
	e.lqData = make([]inflight, L*e.lqCap)
	e.lqHead = make([]int32, L)
	e.lqCount = make([]int32, L)

	e.injectQ = make([]pktRing, n)
	e.rrEject = make([]int32, n)
	e.reset(cfg)
	return e
}

// compatible reports whether cfg can run on this engine's geometry
// without reallocating: the same topology object and the knobs that
// size or shape the flat arrays. Pointer equality on Topo is the right
// test for the batched-matrix use case (cells share one prepared
// Setup); a distinct-but-equal topology just falls back to a fresh
// engine.
func (e *engine) compatible(cfg Config) bool {
	old := e.cfg
	if cfg.Topo != old.Topo || cfg.NumVCs != old.NumVCs ||
		cfg.BufDepth != old.BufDepth || cfg.LinkLatency != old.LinkLatency {
		return false
	}
	if len(cfg.NodeRate) != len(old.NodeRate) {
		return false
	}
	for i := range cfg.NodeRate {
		if cfg.NodeRate[i] != old.NodeRate[i] {
			return false
		}
	}
	if len(cfg.ExtraLinkLatency) != len(old.ExtraLinkLatency) {
		return false
	}
	for k, v := range cfg.ExtraLinkLatency {
		if old.ExtraLinkLatency[k] != v {
			return false
		}
	}
	return true
}

// reset returns the engine to its post-setup state for a fresh run of
// cfg, reusing every geometry-sized allocation (and the packet pool).
// cfg must be compatible() with the engine's geometry. A reset engine
// is indistinguishable from a newly built one — the invariant batched
// matrix execution rests on, pinned by TestEngineResetMatchesFresh.
func (e *engine) reset(cfg Config) {
	e.cfg = cfg
	e.rng = rand.New(rand.NewSource(cfg.Seed))
	e.replay, _ = cfg.Pattern.(*traffic.Replay)
	e.sizeSlotTables(cfg)

	clear(e.bufHead)
	clear(e.bufCount)
	clear(e.owner)
	clear(e.free)
	for s := range e.slotWhere {
		e.slotWhere[s] = whereNone
	}
	for r := 0; r < e.n; r++ {
		for p := 0; p < int(e.numPorts[r]); p++ {
			for v := 0; v < e.numVCs; v++ {
				e.free[(r*e.maxPorts+p)*e.numVCs+v] = int32(e.bufDepth)
			}
		}
	}
	clear(e.ejectMask)
	clear(e.candMask)
	clear(e.ejectPending)
	clear(e.candPending)
	clear(e.lqPending)
	clear(e.lqHead)
	clear(e.lqCount)
	clear(e.rrOut)
	clear(e.rrEject)
	clear(e.lastOut)
	clear(e.lastEject)
	for r := range e.injectQ {
		q := &e.injectQ[r]
		clear(q.q)
		q.head, q.size = 0, 0
	}
	e.queuedPkts = 0

	if cfg.CollectEnergy {
		if e.actBufRead == nil {
			e.actBufRead = make([]uint64, e.n)
			e.actBufWrite = make([]uint64, e.n)
			e.actLinkFlits = make([]uint64, e.numLinks)
		} else {
			clear(e.actBufRead)
			clear(e.actBufWrite)
			clear(e.actLinkFlits)
		}
	} else {
		e.actBufRead, e.actBufWrite, e.actLinkFlits = nil, nil, nil
	}
	e.actInjected, e.actEjected = 0, 0

	e.cycle = 0
	e.routing = cfg.Routing
	e.vcAssign = cfg.VC
	e.escapeVCs = cfg.VC.NumVCs
	e.aliveRouter, e.aliveLinkID = nil, nil
	e.boundaries = nil
	e.nextBoundary = 0
	e.firstFault = -1
	if !cfg.FaultSchedule.Empty() {
		total := int64(cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles)
		e.boundaries = cfg.FaultSchedule.Boundaries(total)
		if len(e.boundaries) > 0 {
			// Boundaries are sorted and every recovery follows its own
			// onset, so the first boundary is the first fault onset.
			e.firstFault = e.boundaries[0]
			e.aliveRouter = make([]bool, e.n)
			e.aliveLinkID = make([]bool, e.numLinks)
			for i := range e.aliveRouter {
				e.aliveRouter[i] = true
			}
			for i := range e.aliveLinkID {
				e.aliveLinkID[i] = true
			}
		}
	}

	e.bufferedFlits, e.linkFlits = 0, 0
	e.delivered, e.measured = 0, 0
	e.measuredInFlight = 0
	e.latencySum = 0
	e.forwardedThisCycle = false
	e.droppedFlits, e.droppedPackets = 0, 0
	e.rerouteEvents = 0
	e.peakUnreachable = 0
	e.skippedInject = 0
	e.measuredOffered = 0
	e.preLatSum, e.postLatSum = 0, 0
	e.preMeasured, e.postMeasured = 0, 0
	e.ffSkipped = 0
}

// sizeSlotTables gives every sub-rate router a slot table covering
// cfg's cycle budget. Tables only grow: slot counts depend on the cycle
// alone, so a reused engine keeps its tables for any shorter budget and
// rebuilds them for a longer one.
func (e *engine) sizeSlotTables(cfg Config) {
	total := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	var byRate map[float64][]int32
	for r := 0; r < e.n && r < len(cfg.NodeRate); r++ {
		rate := cfg.NodeRate[r]
		if !(rate > 0 && rate < 1) || len(e.slotTab[r]) > total {
			continue
		}
		if byRate == nil {
			byRate = map[float64][]int32{}
		}
		tab, ok := byRate[rate]
		if !ok {
			tab = slotTable(rate, total)
			byRate[rate] = tab
		}
		e.slotTab[r] = tab
	}
}

// step advances the engine by one cycle body (the run loop owns the
// cycle counter, watchdog and drain logic).
func (e *engine) step(generating, measuring bool) {
	e.forwardedThisCycle = false
	e.deliverArrivals()
	e.ejectAndSwitch()
	if generating {
		e.generate(measuring)
	}
	e.inject()
}

func (e *engine) run() (*Result, error) {
	cfg := e.cfg
	total := int64(cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles)
	measStart := int64(cfg.WarmupCycles)
	measEnd := measStart + int64(cfg.MeasureCycles)
	idleCycles := 0
	idleLimit := 4 * (cfg.LinkLatency + 8) * e.n
	for e.cycle = 0; e.cycle < total; e.cycle++ {
		if e.nextBoundary < len(e.boundaries) && e.boundaries[e.nextBoundary] == e.cycle {
			e.applyFaultBoundary()
			e.nextBoundary++
		}
		if e.bufferedFlits == 0 && e.queuedPkts == 0 {
			if target := e.skipTarget(measEnd, total); target > e.cycle {
				// Nothing observable happens in [cycle, target): no flit
				// can move (buffers and injection queues are empty; link
				// pipelines next deliver at target or later), no injection
				// can occur (drain phase, or the trace replay ran dry),
				// and no fault boundary lands inside the window. Jump the
				// cycle counter: leakage energy integrates over the final
				// e.cycle at report time, round-robin state catches up
				// lazily from lastEject/lastOut, and service slots are a
				// function of the cycle alone.
				e.ffSkipped += target - e.cycle
				if e.networkEmpty() {
					idleCycles = 0
				} else {
					// Replicate the per-cycle watchdog across the window:
					// flits sit in link pipelines and nothing forwards, so
					// the count rises by one per skipped cycle.
					idleCycles += int(target - e.cycle)
					if idleCycles > idleLimit {
						return &Result{Stalled: true}, nil
					}
				}
				e.cycle = target - 1
				continue
			}
		}
		generating := e.cycle < measEnd
		measuring := e.cycle >= measStart && e.cycle < measEnd
		e.step(generating, measuring)
		// Watchdog: if nothing moved for a long stretch while flits are
		// buffered, the network is wedged.
		if e.forwardedThisCycle || e.networkEmpty() {
			idleCycles = 0
		} else {
			idleCycles++
			if idleCycles > idleLimit {
				return &Result{Stalled: true}, nil
			}
		}
		if e.cycle >= measEnd && e.pendingMeasured() == 0 {
			break
		}
	}
	return e.result()
}

// result assembles the Result of a finished (non-stalled) run.
func (e *engine) result() (*Result, error) {
	cfg := e.cfg
	res := &Result{
		OfferedRate: cfg.InjectionRate,
		Measured:    e.measured,
		Delivered:   e.delivered,
	}
	injectingNodes := e.injectingNodes()
	if injectingNodes == 0 {
		injectingNodes = e.n
	}
	cyclesNs := 1.0 / cfg.ClockGHz
	if e.measured > 0 {
		res.AvgLatencyCycles = float64(e.latencySum) / float64(e.measured)
		res.AvgLatencyNs = res.AvgLatencyCycles * cyclesNs
	}
	res.AcceptedPerCycle = float64(e.delivered) / float64(cfg.MeasureCycles) / float64(injectingNodes)
	res.AcceptedPerNs = res.AcceptedPerCycle * cfg.ClockGHz
	res.DeliveredFraction = 1
	if e.measuredOffered > 0 {
		res.DeliveredFraction = float64(e.measured) / float64(e.measuredOffered)
	}
	res.DroppedFlits = e.droppedFlits
	res.DroppedPackets = e.droppedPackets
	res.RerouteEvents = e.rerouteEvents
	res.UnreachablePairs = e.peakUnreachable
	res.SkippedInjections = e.skippedInject
	if e.preMeasured > 0 {
		res.PreFaultAvgLatencyNs = float64(e.preLatSum) / float64(e.preMeasured) * cyclesNs
	}
	if e.postMeasured > 0 {
		res.PostFaultAvgLatencyNs = float64(e.postLatSum) / float64(e.postMeasured) * cyclesNs
	}
	if cfg.CollectEnergy {
		energy, err := e.energyReport()
		if err != nil {
			return nil, err
		}
		res.Energy = energy
	}
	return res, nil
}

// energyReport converts the run's activity counters into the measured
// energy report.
func (e *engine) energyReport() (*EnergyReport, error) {
	m := power.Default22nm()
	if e.cfg.EnergyModel != nil {
		m = *e.cfg.EnergyModel
	}
	rep, err := m.ActivityReport(e.cfg.Topo, power.Activity{
		Cycles:      e.cycle,
		ClockGHz:    e.cfg.ClockGHz,
		RouterFlits: e.actBufRead,
		LinkFlits:   e.actLinkFlits,
	})
	if err != nil {
		return nil, err
	}
	return &EnergyReport{
		ActivityReport: *rep,
		BufReads:       e.actBufRead,
		BufWrites:      e.actBufWrite,
		LinkFlits:      e.actLinkFlits,
		InjectedFlits:  e.actInjected,
		EjectedFlits:   e.actEjected,
	}, nil
}

// injectingNodes counts nodes that originate traffic under the
// pattern's static Originates answer, which draws no rng and reads no
// mutable state.
func (e *engine) injectingNodes() int {
	count := 0
	for r := 0; r < e.n; r++ {
		if e.cfg.Pattern.Originates(r) {
			count++
		}
	}
	return count
}

// networkEmpty is O(1): buffered and in-flight flit counters are
// maintained at every push/pop.
func (e *engine) networkEmpty() bool {
	return e.bufferedFlits == 0 && e.linkFlits == 0
}

// skipTarget returns the first cycle > e.cycle at which anything
// observable can happen again, or e.cycle when the current cycle must
// be simulated. The caller guarantees empty buffers and injection
// queues; the remaining wake-ups are link-pipeline arrivals, injection
// opportunities, the next fault boundary, and the measure-window end
// (where the drain-exit check must run cycle by cycle).
func (e *engine) skipTarget(measEnd, total int64) int64 {
	if e.cycle >= measEnd && e.pendingMeasured() == 0 {
		// The drain-exit check fires after this cycle executes; skipping
		// past it would end the run at a later cycle than the
		// cycle-by-cycle path (observable through leakage-energy
		// integration). During any legal skip window measuredInFlight is
		// constant — measured flits still in link pipelines clamp the
		// window via nextArrival — so the exit condition can only become
		// true at an executed cycle.
		return e.cycle
	}
	target := total
	if e.cycle < measEnd {
		// Generation is live. The Bernoulli gate draws rng once per
		// router per cycle whatever the pattern would answer, so
		// skipping is only legal when those draws are unobservable: a
		// dry trace replay never again returns ok from Inject and never
		// again consumes rng in Inject or OnDeliver.
		if e.replay == nil || !e.replay.Dry() {
			return e.cycle
		}
		if measEnd < target {
			target = measEnd
		}
	}
	if e.linkFlits > 0 {
		if a := e.nextArrival(); a < target {
			target = a
		}
	}
	if e.nextBoundary < len(e.boundaries) && e.boundaries[e.nextBoundary] < target {
		target = e.boundaries[e.nextBoundary]
	}
	return target
}

func (e *engine) pendingMeasured() int {
	return e.measuredInFlight
}

// generate creates new packets per the Bernoulli injection process.
// Flows without a path in the current epoch (dead endpoint or
// disconnected pair) are offered-but-skipped: the rng draw and pattern
// state advance identically either way, so an epoch's injection stream
// is independent of which flows are blocked.
func (e *engine) generate(measuring bool) {
	for r := 0; r < e.n; r++ {
		if e.rng.Float64() >= e.cfg.InjectionRate {
			continue
		}
		dst, flits, ok := e.cfg.Pattern.Inject(r, e.rng)
		if !ok {
			continue
		}
		if measuring {
			e.measuredOffered++
		}
		if e.flowBlocked(r, dst) {
			e.skippedInject++
			continue
		}
		e.enqueuePacket(r, dst, flits, measuring)
	}
}

// flowBlocked reports whether the current epoch has no path for the
// flow. Self-flows keep their historical behavior (immediate local
// ejection via a nil path) rather than being blocked.
func (e *engine) flowBlocked(src, dst int) bool {
	return src != dst && e.routing.Table[src][dst] == nil
}

// newPacket reuses a pooled packet or allocates one (warm-up only).
func (e *engine) newPacket() *packet {
	if n := len(e.pktFree); n > 0 {
		p := e.pktFree[n-1]
		e.pktFree = e.pktFree[:n-1]
		return p
	}
	return &packet{}
}

// recyclePacket returns a fully delivered packet to the pool. Safe at
// tail ejection: all flits have been ejected, downstream VC ownership
// was cleared when the tail was forwarded, and the injection queue entry
// was popped when the tail entered the network.
func (e *engine) recyclePacket(p *packet) {
	*p = packet{}
	e.pktFree = append(e.pktFree, p)
}

func (e *engine) enqueuePacket(src, dst, flits int, measuring bool) {
	p := e.newPacket()
	p.src, p.dst, p.flits = src, dst, flits
	p.layer = e.vcAssign.Layer(src, dst)
	p.path = e.routing.PathFor(src, dst)
	p.injectedAt = e.cycle
	p.measured = measuring
	if measuring {
		e.measuredInFlight++
	}
	e.injectQ[src].push(p)
	e.queuedPkts++
}
