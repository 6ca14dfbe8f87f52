package sim

import (
	"netsmith/internal/route"
	"netsmith/internal/vc"
)

// Fault-boundary processing. At every cycle where the schedule changes
// the set of dead elements the engine performs an epoch flush: every
// in-flight flit is dropped and counted (the table-update loss window of
// a programmable data plane), all per-slot and per-link state is reset
// to its initial empty-and-fully-credited shape, routing is rebuilt on
// the surviving subgraph and a fresh VC assignment keeps the epoch
// deadlock-free. Everything below is single-threaded and seeded, so a
// given (config, schedule) pair replays bit-identically.

// applyFaultBoundary processes one boundary cycle: recompute liveness,
// and — only if the alive set actually changed — flush, reroute and
// re-admit the injection queues.
func (e *engine) applyFaultBoundary() {
	deadLinks, deadRouters := e.cfg.FaultSchedule.DeadAt(e.cycle)
	aliveR := make([]bool, e.n)
	for i := range aliveR {
		aliveR[i] = true
	}
	for _, r := range deadRouters {
		aliveR[r] = false
	}
	aliveL := make([]bool, e.numLinks)
	for i := range aliveL {
		aliveL[i] = true
	}
	for _, l := range deadLinks {
		if id := e.linkIDAt[l[0]*e.n+l[1]]; id >= 0 {
			aliveL[id] = false
		}
	}
	if boolsEqual(aliveR, e.aliveRouter) && boolsEqual(aliveL, e.aliveLinkID) {
		return
	}
	e.rerouteEvents++
	purged := e.purgeNetwork()
	e.aliveRouter = aliveR
	e.aliveLinkID = aliveL
	e.rebuildEpochRouting(len(deadLinks) == 0 && len(deadRouters) == 0)
	e.flushInjectQueues(purged)
}

func boolsEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// purgeNetwork drops every buffered and in-flight flit, counting each,
// and then empties the network (emptyNetwork). Returns the set of
// packets whose flits were purged; fully-injected ones are recycled
// here, partially-injected ones still sit in their source's injection
// queue and are recycled by flushInjectQueues.
func (e *engine) purgeNetwork() map[*packet]bool {
	purged := make(map[*packet]bool)
	for lid := 0; lid < e.numLinks; lid++ {
		cnt := e.lqCount[lid]
		base := lid * e.lqCap
		head := e.lqHead[lid]
		for i := int32(0); i < cnt; i++ {
			e.dropFlit(e.lqData[base+int((head+i)&e.lqMask)].f, purged)
		}
	}
	for s := range e.bufCount {
		cnt := e.bufCount[s]
		base := s * bufDepth
		head := e.bufHead[s]
		for i := int32(0); i < cnt; i++ {
			e.dropFlit(e.bufData[base+int((head+i)&bufMask)], purged)
		}
	}
	e.emptyNetwork()
	return purged
}

// dropFlit accounts one purged flit; the first flit of each packet also
// retires the packet (measured-in-flight bookkeeping, drop counters).
func (e *engine) dropFlit(f flit, purged map[*packet]bool) {
	e.droppedFlits++
	p := f.pkt
	if p == nil || purged[p] {
		return
	}
	purged[p] = true
	e.droppedPackets++
	if p.measured {
		e.measuredInFlight--
	}
	if p.flitsQueued == p.flits {
		// Fully injected: the injection queue holds no reference, so the
		// packet object can be pooled immediately. Later purged flits of
		// the same packet are caught by the purged-set check above.
		e.recyclePacket(p)
	}
}

// rebuildEpochRouting installs the routing and VC assignment for the
// epoch that starts at the current cycle. When every element is alive
// the Config's own tables come back verbatim; otherwise survivor tables
// are built on the alive subgraph. Flows whose fresh assignment would
// need more layers than the physical VC count are deterministically
// dropped (nil path, reported unreachable) — the epoch must stay
// deadlock-free within the configured buffers.
func (e *engine) rebuildEpochRouting(healthy bool) {
	if healthy {
		e.routing = e.cfg.Routing
		e.vcAssign = e.cfg.VC
		e.escapeVCs = e.cfg.VC.NumVCs
		e.noteUnreachable()
		return
	}
	aliveRouter := func(r int) bool { return e.aliveRouter[r] }
	aliveLink := func(a, b int) bool {
		id := e.linkIDAt[a*e.n+b]
		return id >= 0 && e.aliveLinkID[id]
	}
	r := route.SurvivorRouting(e.cfg.Routing.Name+"+survivor", e.cfg.Topo, aliveRouter, aliveLink)
	a, err := vc.Assign(r, vc.Options{Seed: e.cfg.Seed})
	if err != nil {
		// Defensive only: layering simple per-flow paths always makes
		// progress. Should it ever fail, block every flow for the epoch
		// rather than risk a deadlock.
		for s := 0; s < e.n; s++ {
			for d := 0; d < e.n; d++ {
				r.Table[s][d] = nil
			}
		}
		layerOf := make([][]int, e.n)
		for s := range layerOf {
			layerOf[s] = make([]int, e.n)
			for d := range layerOf[s] {
				layerOf[s][d] = -1
			}
		}
		a = &vc.Assignment{NumVCs: 1, LayerOf: layerOf}
	}
	if a.NumVCs > e.cfg.NumVCs {
		for s := 0; s < e.n; s++ {
			for d := 0; d < e.n; d++ {
				if a.LayerOf[s][d] >= e.cfg.NumVCs {
					r.Table[s][d] = nil
					a.LayerOf[s][d] = -1
				}
			}
		}
		a.NumVCs = e.cfg.NumVCs
	}
	e.routing = r
	e.vcAssign = a
	e.escapeVCs = a.NumVCs
	e.noteUnreachable()
}

// noteUnreachable counts the epoch's ordered pairs with no path and
// keeps the peak for Result.UnreachablePairs.
func (e *engine) noteUnreachable() {
	unreach := 0
	for s := 0; s < e.n; s++ {
		row := e.routing.Table[s]
		for d := 0; d < e.n; d++ {
			if s != d && row[d] == nil {
				unreach++
			}
		}
	}
	if unreach > e.peakUnreachable {
		e.peakUnreachable = unreach
	}
}

// flushInjectQueues re-admits queued packets into the new epoch:
// packets already partially in the network are dropped (their worm was
// purged; a freshly injected body flit would have no owner chain),
// packets whose flow lost its path are dropped and counted, and the
// rest are re-pathed onto the epoch's tables, preserving FIFO order and
// generation timestamps.
func (e *engine) flushInjectQueues(purged map[*packet]bool) {
	var keep []*packet
	for r := 0; r < e.n; r++ {
		q := &e.injectQ[r]
		keep = keep[:0]
		for !q.empty() {
			p := q.pop()
			if p.flitsQueued > 0 {
				e.queuedPkts--
				if !purged[p] {
					// All its injected flits were already ejected, but the
					// tail never entered the network; the packet is lost
					// at the boundary like any in-flight worm.
					e.droppedPackets++
					if p.measured {
						e.measuredInFlight--
					}
				}
				e.recyclePacket(p)
				continue
			}
			if e.flowBlocked(p.src, p.dst) {
				e.queuedPkts--
				e.droppedPackets++
				if p.measured {
					e.measuredInFlight--
				}
				e.recyclePacket(p)
				continue
			}
			p.layer = e.vcAssign.Layer(p.src, p.dst)
			p.path = e.routing.PathFor(p.src, p.dst)
			keep = append(keep, p)
		}
		for _, p := range keep {
			q.push(p)
		}
	}
}
