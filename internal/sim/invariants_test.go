package sim

import (
	"math"
	"math/rand"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/traffic"
)

// TestFlitConservation checks that after a run with full drain, every
// measured packet was delivered exactly once: measured-in-flight returns
// to zero and latency accounting covers all measured packets.
func TestFlitConservation(t *testing.T) {
	s, err := Prepare(expert.Mesh(layout.Grid4x5), UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := defaulted(Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern: traffic.Uniform{N: 20}, InjectionRate: 0.08,
		WarmupCycles: 800, MeasureCycles: 2500, DrainCycles: 30000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatal("stalled")
	}
	if e.measuredInFlight != 0 {
		t.Errorf("%d measured packets never drained", e.measuredInFlight)
	}
	if res.Measured == 0 {
		t.Fatal("nothing measured")
	}
}

// TestCreditConservation verifies that every VC buffer's free-slot
// counter matches its actual occupancy at end of simulation.
func TestCreditConservation(t *testing.T) {
	s, err := Prepare(expert.FoldedTorus(layout.Grid4x5), UseMCLB, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := defaulted(Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern: traffic.Uniform{N: 20}, InjectionRate: 0.15,
		WarmupCycles: 500, MeasureCycles: 1500, DrainCycles: 2000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	if _, err := e.run(); err != nil {
		t.Fatal(err)
	}
	// Tally in-flight flits by their reserved destination slot.
	inflightTo := make([]int, len(e.free))
	for lid := 0; lid < e.numLinks; lid++ {
		for i := int32(0); i < e.lqCount[lid]; i++ {
			inf := e.lqData[lid*e.lqCap+int((e.lqHead[lid]+i)&e.lqMask)]
			inflightTo[inf.slot]++
		}
	}
	for r := 0; r < e.n; r++ {
		for p := 0; p < int(e.numPorts[r]); p++ {
			for v := 0; v < e.numVCs; v++ {
				s := (r*e.maxPorts+p)*e.numVCs + v
				occupied := int(e.bufCount[s]) + inflightTo[s]
				if int(e.free[s])+occupied != bufDepth {
					t.Fatalf("router %d port %d vc %d: free %d + occupied %d != depth %d",
						r, p, v, e.free[s], occupied, bufDepth)
				}
			}
		}
	}
}

// TestOccupancyMaskConsistency verifies that after a run the head-target
// bookkeeping (slotWhere plus the eject/candidate bitmasks) exactly
// mirrors buffer contents: every occupied slot is filed under the mask
// matching its head flit's next hop, and every set mask bit corresponds
// to such a slot.
func TestOccupancyMaskConsistency(t *testing.T) {
	s, err := Prepare(expert.Mesh(layout.Grid4x5), UseNDBT, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := defaulted(Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern: traffic.Uniform{N: 20}, InjectionRate: 0.25,
		WarmupCycles: 400, MeasureCycles: 1200, DrainCycles: 200, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	if _, err := e.run(); err != nil {
		t.Fatal(err)
	}
	bufferedSeen := 0
	for r := 0; r < e.n; r++ {
		for lb := 0; lb < e.slotsPerRouter; lb++ {
			slot := int32(r*e.slotsPerRouter + lb)
			w, bit := lb>>6, uint64(1)<<uint(lb&63)
			inEject := e.ejectMask[r*e.wordsPerRouter+w]&bit != 0
			candOf := int32(-1)
			for lid := 0; lid < e.numLinks; lid++ {
				if e.linkFrom[lid] == int32(r) && e.candMask[lid*e.wordsPerRouter+w]&bit != 0 {
					if candOf >= 0 {
						t.Fatalf("slot %d in two candidate masks", slot)
					}
					candOf = int32(lid)
				}
			}
			bufferedSeen += int(e.bufCount[slot])
			switch {
			case e.bufCount[slot] == 0:
				if inEject || candOf >= 0 || e.slotWhere[slot] != whereNone {
					t.Fatalf("empty slot %d still filed (eject=%v cand=%d where=%d)",
						slot, inEject, candOf, e.slotWhere[slot])
				}
			default:
				h := e.headFlit(slot)
				if int(h.pathIdx) >= len(h.pkt.path)-1 {
					if !inEject || candOf >= 0 || e.slotWhere[slot] != whereEject {
						t.Fatalf("local head in slot %d misfiled (eject=%v cand=%d)", slot, inEject, candOf)
					}
				} else {
					want := int32(e.linkIDAt[r*e.n+h.pkt.path[h.pathIdx+1]])
					if inEject || candOf != want || e.slotWhere[slot] != want {
						t.Fatalf("routed head in slot %d misfiled (want link %d, cand %d, where %d)",
							slot, want, candOf, e.slotWhere[slot])
					}
				}
			}
		}
	}
	if bufferedSeen != e.bufferedFlits {
		t.Fatalf("bufferedFlits counter %d != actual %d", e.bufferedFlits, bufferedSeen)
	}
}

// recordingPattern wraps a pattern and logs every accepted injection so
// tests can recompute expected activity from the routing tables.
type recordingPattern struct {
	traffic.Pattern
	recs [][3]int // src, dst, flits
}

func (r *recordingPattern) Inject(src int, rng *rand.Rand) (int, int, bool) {
	dst, flits, ok := r.Pattern.Inject(src, rng)
	if ok {
		r.recs = append(r.recs, [3]int{src, dst, flits})
	}
	return dst, flits, ok
}

// TestEnergyConservation pins the activity-counter semantics after a
// fully drained run:
//
//  1. flit conservation per component: buffer writes = injections +
//     link arrivals, buffer reads = link departures + ejections, and
//     injected == ejected once the network is empty;
//  2. measured traversal/hop counters equal delivered-flit x hop-count
//     recomputed from the routing tables (every recorded packet of f
//     flits over an h-hop path contributes f*h link crossings and
//     f*(h+1) buffer reads);
//  3. energy conservation in the converted report: the per-router plus
//     per-link dynamic breakdowns sum to the dynamic total, and dynamic
//     plus leakage equals the total.
func TestEnergyConservation(t *testing.T) {
	s, err := Prepare(expert.Mesh(layout.Grid4x5), UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingPattern{Pattern: traffic.Uniform{N: 20}}
	cfg, err := defaulted(Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern: rec, InjectionRate: 0.10, CollectEnergy: true,
		WarmupCycles: 600, MeasureCycles: 2500, DrainCycles: 30000, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatal("stalled")
	}
	if !e.networkEmpty() {
		t.Fatal("network not drained; conservation invariants need a full drain")
	}
	for r := 0; r < e.n; r++ {
		if !e.injectQ[r].empty() {
			t.Fatalf("router %d still has queued packets", r)
		}
	}
	rep := res.Energy
	if rep == nil {
		t.Fatal("CollectEnergy run returned no energy report")
	}

	// (1) Component-level flit conservation.
	var writes, reads, cross uint64
	for _, v := range rep.BufWrites {
		writes += v
	}
	for _, v := range rep.BufReads {
		reads += v
	}
	for _, v := range rep.LinkFlits {
		cross += v
	}
	if writes != rep.InjectedFlits+cross {
		t.Errorf("buffer writes %d != injected %d + link crossings %d", writes, rep.InjectedFlits, cross)
	}
	if reads != rep.EjectedFlits+cross {
		t.Errorf("buffer reads %d != ejected %d + link crossings %d", reads, rep.EjectedFlits, cross)
	}
	if rep.InjectedFlits != rep.EjectedFlits {
		t.Errorf("drained network: injected %d != ejected %d flits", rep.InjectedFlits, rep.EjectedFlits)
	}

	// (2) Counters vs the routing tables: every recorded injection of f
	// flits rides its table path end to end.
	var wantFlits, wantFlitHops uint64
	for _, r := range rec.recs {
		hops := s.Routing.PathFor(r[0], r[1]).Hops()
		wantFlits += uint64(r[2])
		wantFlitHops += uint64(r[2] * hops)
	}
	if wantFlits == 0 {
		t.Fatal("pattern recorded no injections")
	}
	if rep.InjectedFlits != wantFlits {
		t.Errorf("injected flits %d != recorded %d", rep.InjectedFlits, wantFlits)
	}
	if cross != wantFlitHops {
		t.Errorf("link crossings %d != recorded flit-hops %d from routing tables", cross, wantFlitHops)
	}
	if reads != wantFlitHops+wantFlits {
		t.Errorf("router traversals %d != flit-hops %d + delivered flits %d", reads, wantFlitHops, wantFlits)
	}

	// (3) Energy conservation in the converted report.
	var routerPJ, linkPJ float64
	for _, v := range rep.PerRouterPJ {
		routerPJ += v
	}
	for _, v := range rep.PerLinkPJ {
		linkPJ += v
	}
	closeEnough := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if !closeEnough(routerPJ, rep.RouterDynPJ) || !closeEnough(linkPJ, rep.WireDynPJ) {
		t.Errorf("component sums (%v, %v) != report components (%v, %v)",
			routerPJ, linkPJ, rep.RouterDynPJ, rep.WireDynPJ)
	}
	if !closeEnough(routerPJ+linkPJ, rep.DynamicPJ) {
		t.Errorf("per-router %v + per-link %v != dynamic total %v", routerPJ, linkPJ, rep.DynamicPJ)
	}
	if !closeEnough(rep.DynamicPJ+rep.LeakagePJ, rep.TotalPJ) {
		t.Errorf("dynamic %v + leakage %v != total %v", rep.DynamicPJ, rep.LeakagePJ, rep.TotalPJ)
	}
	if rep.DynamicPJ <= 0 || rep.LeakagePJ <= 0 || rep.DurationNs <= 0 {
		t.Errorf("degenerate report: %+v", rep.ActivityReport)
	}
}

// TestEnergyDisabledCollectsNothing guards the zero-overhead contract:
// without CollectEnergy the engine allocates no counters and the result
// carries no report.
func TestEnergyDisabledCollectsNothing(t *testing.T) {
	s, err := Prepare(expert.Mesh(layout.Grid4x5), UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern: traffic.Uniform{N: 20}, InjectionRate: 0.05,
		WarmupCycles: 200, MeasureCycles: 500, DrainCycles: 2000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy != nil {
		t.Error("energy report present without CollectEnergy")
	}
}

// TestZeroRateRunsClean ensures an idle network terminates immediately
// with no deliveries and no stall report.
func TestZeroRateRunsClean(t *testing.T) {
	s, err := Prepare(expert.Mesh(layout.Grid4x5), UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern: traffic.Uniform{N: 20}, InjectionRate: 0,
		WarmupCycles: 200, MeasureCycles: 400, DrainCycles: 400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled || res.Delivered != 0 || res.Measured != 0 {
		t.Errorf("idle network misbehaved: %+v", res)
	}
}

// TestTwoNodeNetwork exercises the smallest possible topology.
func TestTwoNodeNetwork(t *testing.T) {
	g := layout.NewGrid(1, 2)
	tp := expert.Mesh(g)
	s, err := Prepare(tp, UseMCLB, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern: traffic.Uniform{N: 2}, InjectionRate: 0.1,
		WarmupCycles: 300, MeasureCycles: 1000, DrainCycles: 2000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled || res.Measured == 0 {
		t.Fatalf("two-node network failed: %+v", res)
	}
	// One hop, link latency 2, plus serialization: latency must be small.
	if res.AvgLatencyCycles > 20 {
		t.Errorf("two-node latency %v cycles too high", res.AvgLatencyCycles)
	}
}

// TestWormholeContiguity drives heavy multi-flit traffic and relies on
// the engine's internal consistency: if flits of different packets
// interleaved within a VC, tail accounting would corrupt measured
// counts and the drain would hang (caught by measuredInFlight != 0).
func TestWormholeContiguity(t *testing.T) {
	s, err := Prepare(expert.Mesh(layout.Grid4x5), UseNDBT, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := defaulted(Config{
		Topo: s.Topo, Routing: s.Routing, VC: s.VC,
		Pattern: traffic.Uniform{N: 20}, InjectionRate: 0.30,
		WarmupCycles: 500, MeasureCycles: 2000, DrainCycles: 60000, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatal("stalled under heavy load")
	}
	if e.measuredInFlight != 0 {
		t.Errorf("measured packets lost: %d", e.measuredInFlight)
	}
}
