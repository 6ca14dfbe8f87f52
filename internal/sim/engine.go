package sim

import "math/bits"

// --- VC-buffer ring primitives --------------------------------------

// headFlit returns the head flit of slot s without popping it.
func (e *engine) headFlit(s int32) *flit {
	return &e.bufData[int(s)*e.bufCap+int(e.bufHead[s])]
}

// pushFlit appends a flit to slot s of router r and retargets the
// occupancy masks when the buffer was empty (new head).
func (e *engine) pushFlit(s int32, r int, f flit) {
	e.bufData[int(s)*e.bufCap+int((e.bufHead[s]+e.bufCount[s])&e.bufMask)] = f
	e.bufCount[s]++
	e.bufferedFlits++
	if e.actBufWrite != nil {
		e.actBufWrite[r]++
	}
	if e.bufCount[s] == 1 {
		e.retarget(s, r)
	}
}

// popFlit removes and returns the head flit of slot s of router r,
// retargeting the masks for the new head (or emptiness).
func (e *engine) popFlit(s int32, r int) flit {
	f := e.bufData[int(s)*e.bufCap+int(e.bufHead[s])]
	e.bufHead[s] = (e.bufHead[s] + 1) & e.bufMask
	e.bufCount[s]--
	e.bufferedFlits--
	if e.actBufRead != nil {
		e.actBufRead[r]++
	}
	if !f.isTail && e.bufCount[s] != 0 {
		// The new head is a later flit of the same worm (packets are
		// contiguous per VC): same packet, same pathIdx, same target —
		// the masks already file this slot correctly.
		return f
	}
	e.retarget(s, r)
	return f
}

// retarget re-files slot s of router r under the mask matching its
// current head flit: the router's eject mask when the head is at its
// final hop, the candidate mask of the link it wants next otherwise.
// Each occupied slot lives in exactly one mask, so switch allocation and
// ejection never scan empty or mis-targeted VCs. The per-router /
// per-link summary bits (ejectPending, candPending) are kept eagerly in
// sync so the event-driven cycle scan never visits an idle element.
func (e *engine) retarget(s int32, r int) {
	// Compute the new target first: a worm transiting a slot leaves the
	// target unchanged for every body flit (same packet, same path), and
	// then no mask or summary word needs touching at all — the dominant
	// case on the per-flit hot path.
	nw := whereNone
	if e.bufCount[s] != 0 {
		h := e.headFlit(s)
		if int(h.pathIdx) >= len(h.pkt.path)-1 {
			nw = whereEject
		} else if lid := e.linkIDAt[r*e.n+h.pkt.path[h.pathIdx+1]]; lid >= 0 {
			nw = lid
		}
		// Malformed route (lid < 0) leaves the flit unscheduled under
		// whereNone: the watchdog reports the wedge, matching the old
		// full-scan behavior.
	}
	old := e.slotWhere[s]
	if nw == old {
		return
	}
	e.slotWhere[s] = nw
	lb := int(s) - r*e.slotsPerRouter // local slot index: port*numVCs+vc
	w := lb >> 6
	bit := uint64(1) << uint(lb&63)
	switch old {
	case whereNone:
	case whereEject:
		base := r * e.wordsPerRouter
		e.ejectMask[base+w] &^= bit
		if e.maskEmpty(e.ejectMask, base) {
			e.ejectPending[r>>6] &^= uint64(1) << uint(r&63)
		}
	default:
		base := int(old) * e.wordsPerRouter
		e.candMask[base+w] &^= bit
		if e.maskEmpty(e.candMask, base) {
			e.candPending[int(old)>>6] &^= uint64(1) << uint(int(old)&63)
		}
	}
	switch nw {
	case whereNone:
	case whereEject:
		e.ejectMask[r*e.wordsPerRouter+w] |= bit
		e.ejectPending[r>>6] |= uint64(1) << uint(r&63)
	default:
		e.candMask[int(nw)*e.wordsPerRouter+w] |= bit
		e.candPending[int(nw)>>6] |= uint64(1) << uint(int(nw)&63)
	}
}

// maskEmpty reports whether the wordsPerRouter-word mask group starting
// at base is all zero.
func (e *engine) maskEmpty(m []uint64, base int) bool {
	for i := 0; i < e.wordsPerRouter; i++ {
		if m[base+i] != 0 {
			return false
		}
	}
	return true
}

// --- cycle phases ---------------------------------------------------

// deliverArrivals moves in-flight flits that reach their arrival cycle
// into downstream VC buffers (the slot was reserved at send time).
// Only links with in-flight flits (lqPending) are visited, in dense-ID
// order — the same deterministic order as a full scan, since skipped
// links have nothing to deliver. Delivery never pushes onto a link, so
// a per-word snapshot of the pending bits is exact.
func (e *engine) deliverArrivals() {
	if e.linkFlits == 0 {
		return
	}
	for wi, w := range e.lqPending {
		for w != 0 {
			lid := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			cnt := e.lqCount[lid]
			base := lid * e.lqCap
			head := e.lqHead[lid]
			to := int(e.linkTo[lid])
			for ; cnt > 0; cnt-- {
				inf := &e.lqData[base+int(head)]
				if inf.arriveAt > e.cycle {
					break
				}
				e.pushFlit(inf.slot, to, inf.f)
				head = (head + 1) & e.lqMask
				e.linkFlits--
			}
			e.lqHead[lid] = head
			e.lqCount[lid] = cnt
			if cnt == 0 {
				e.lqPending[wi] &^= uint64(1) << uint(lid&63)
			}
		}
	}
}

// nextArrival returns the earliest arrival cycle over all in-flight
// link flits. Each link ring is FIFO with a fixed per-link latency, so
// its head is its earliest arrival. Only called on the fast-forward
// path, with at least one flit in flight.
func (e *engine) nextArrival() int64 {
	next := int64(1)<<62 - 1
	for wi, w := range e.lqPending {
		for w != 0 {
			lid := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if at := e.lqData[lid*e.lqCap+int(e.lqHead[lid])].arriveAt; at < next {
				next = at
			}
		}
	}
	return next
}

// linkPush enqueues a forwarded flit on link lid's in-flight ring.
func (e *engine) linkPush(lid int32, inf inflight) {
	cnt := e.lqCount[lid]
	if int(cnt) == e.lqCap {
		e.growLinkRings()
	}
	e.lqData[int(lid)*e.lqCap+int((e.lqHead[lid]+cnt)&e.lqMask)] = inf
	e.lqCount[lid] = cnt + 1
	e.lqPending[int(lid)>>6] |= uint64(1) << uint(int(lid)&63)
	e.linkFlits++
	if e.actLinkFlits != nil {
		e.actLinkFlits[lid]++
	}
}

// growLinkRings doubles the shared link-ring stride. Occupancy is
// bounded by the maximum link latency (at most one flit enters a link
// per cycle and each leaves after exactly linkLat cycles), so this is
// defensive and should never run after setup sizes lqCap to maxLat+1.
func (e *engine) growLinkRings() {
	newCap := e.lqCap * 2
	data := make([]inflight, e.numLinks*newCap)
	for lid := 0; lid < e.numLinks; lid++ {
		for i := int32(0); i < e.lqCount[lid]; i++ {
			data[lid*newCap+int(i)] = e.lqData[lid*e.lqCap+int((e.lqHead[lid]+i)&e.lqMask)]
		}
		e.lqHead[lid] = 0
	}
	e.lqData = data
	e.lqCap = newCap
	e.lqMask = int32(newCap - 1)
}

// slotTable returns the cumulative service-slot counts of a router
// clocked at rate (0 < rate < 1) times the base clock: entry c+1 is the
// number of slots in cycles [0, c], for c < total. It replays the float
// accumulator a sub-rate router ticks once per base cycle, so the
// counts are exact for rates that are not binary fractions too.
func slotTable(rate float64, total int) []int32 {
	tab := make([]int32, total+1)
	acc := 0.0
	for c := 1; c <= total; c++ {
		tab[c] = tab[c-1]
		acc += rate
		if acc >= 1 {
			acc--
			tab[c]++
		}
	}
	return tab
}

// slot returns router r's service-slot count through the current cycle
// and whether the current cycle is one of its slots. Full-rate routers
// (no table) serve every cycle.
func (e *engine) slot(r int) (int64, bool) {
	tab := e.slotTab[r]
	if tab == nil {
		return e.cycle + 1, true
	}
	n := tab[e.cycle+1]
	return int64(n), n != tab[e.cycle]
}

// ejectAndSwitch performs local ejection and output-link switch
// allocation for the routers that have a service slot this cycle. It
// visits only routers with eject-ready heads and links with switch
// candidates, in the order a full router-major scan would use: dense
// link IDs are assigned router-major in topo.refresh, so ascending link
// ID order is each router's out-links in turn. A router or link skipped
// because its router has no slot keeps its pending bit until the
// router's next slot. Round-robin pointers of skipped routers/links
// catch up lazily inside eject/allocateOutput.
func (e *engine) ejectAndSwitch() {
	if e.bufferedFlits == 0 {
		return
	}
	// Ejection first: frees buffer slots for this cycle's switching.
	// Processing a router only mutates its own pending bit, so a
	// per-word snapshot reproduces the full scan's visit set exactly.
	for wi, w := range e.ejectPending {
		for w != 0 {
			r := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if now, ok := e.slot(r); ok {
				e.eject(r, now)
			}
		}
	}
	// Switch allocation. Forwarding a flit can expose a new head that
	// targets a *later* link of this same cycle's scan (which the full
	// scan would reach), so re-read the word after every link and
	// advance monotonically instead of snapshotting; bits set behind
	// the scan position wait for the next cycle, exactly like a full
	// ascending scan.
	for wi := range e.candPending {
		pos := 0
		for {
			w := e.candPending[wi] >> uint(pos) << uint(pos)
			if w == 0 {
				break
			}
			b := bits.TrailingZeros64(w)
			pos = b + 1
			lid := int32(wi<<6 + b)
			r := int(e.linkFrom[lid])
			if now, ok := e.slot(r); ok {
				e.allocateOutput(lid, r, now)
			}
		}
	}
}

// eject drains up to EjectBandwidth flits destined locally at router r,
// scanning only slots whose head is at its final hop (ejectMask), in
// round-robin order starting at rrEject[r]. now is the router's slot
// count through this cycle.
func (e *engine) eject(r int, now int64) {
	budget := e.cfg.EjectBandwidth
	slots := int(e.numPorts[r]) * e.numVCs
	start := int(e.rrEject[r])
	// Catch up the +1-per-slot advance of the router's slots since its
	// last visit: a full scan calls eject on every slot, the event scan
	// only on pending work.
	if d := now - e.lastEject[r] - 1; d > 0 {
		start = int((int64(start) + d) % int64(slots))
	}
	e.lastEject[r] = now
	next := start + 1
	if next == slots {
		next = 0
	}
	e.rrEject[r] = int32(next)
	base := r * e.wordsPerRouter
	sw := start >> 6
	for wi := sw; wi < e.wordsPerRouter && budget > 0; wi++ {
		w := e.ejectMask[base+wi]
		if wi == sw {
			w &= ^uint64(0) << uint(start&63)
		}
		for w != 0 && budget > 0 {
			lb := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			e.drainLocal(r, lb, &budget)
		}
	}
	for wi := 0; wi <= sw && wi < e.wordsPerRouter && budget > 0; wi++ {
		w := e.ejectMask[base+wi]
		if wi == sw {
			w &= uint64(1)<<uint(start&63) - 1
		}
		for w != 0 && budget > 0 {
			lb := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			e.drainLocal(r, lb, &budget)
		}
	}
}

// drainLocal pops consecutive locally-destined flits from one VC buffer.
func (e *engine) drainLocal(r, lb int, budget *int) {
	s := int32(r*e.slotsPerRouter + lb)
	for *budget > 0 && e.bufCount[s] > 0 {
		h := e.headFlit(s)
		if int(h.pathIdx) < len(h.pkt.path)-1 {
			return // new head continues onward
		}
		f := e.popFlit(s, r)
		e.free[s]++
		e.forwardedThisCycle = true
		*budget--
		if e.actBufRead != nil {
			e.actEjected++
		}
		if f.isTail {
			e.completePacket(f.pkt)
		}
	}
}

// completePacket records stats, triggers pattern replies and recycles
// the packet object.
func (e *engine) completePacket(p *packet) {
	if e.cycle >= int64(e.cfg.WarmupCycles) && e.cycle < int64(e.cfg.WarmupCycles+e.cfg.MeasureCycles) {
		e.delivered++
	}
	if p.measured {
		lat := e.cycle - p.injectedAt
		e.latencySum += lat
		if e.firstFault >= 0 {
			if p.injectedAt >= e.firstFault {
				e.postLatSum += lat
				e.postMeasured++
			} else {
				e.preLatSum += lat
				e.preMeasured++
			}
		}
		e.measured++
		e.measuredInFlight--
	}
	if replyDst, replyFlits, ok := e.cfg.Pattern.OnDeliver(p.src, p.dst, e.rng); ok {
		generating := e.cycle < int64(e.cfg.WarmupCycles+e.cfg.MeasureCycles)
		if generating {
			if e.flowBlocked(p.dst, replyDst) {
				e.skippedInject++
			} else {
				e.enqueuePacket(p.dst, replyDst, replyFlits, false)
			}
		}
	}
	e.recyclePacket(p)
}

// allocateOutput picks one (port, vc) of router r whose head flit
// targets link lid and forwards it, honoring credits and per-packet VC
// ownership. Only candidate slots (candMask) are scanned, in
// round-robin order. now is r's slot count through this cycle.
func (e *engine) allocateOutput(lid int32, r int, now int64) {
	slots := int(e.numPorts[r]) * e.numVCs
	start := int(e.rrOut[lid])
	// Same lazy catch-up as eject: a full scan advances rrOut by one on
	// every no-forward slot; reconstruct the skipped ones.
	if d := now - e.lastOut[lid] - 1; d > 0 {
		start = int((int64(start) + d) % int64(slots))
	}
	e.lastOut[lid] = now
	base := int(lid) * e.wordsPerRouter
	sw := start >> 6
	for wi := sw; wi < e.wordsPerRouter; wi++ {
		w := e.candMask[base+wi]
		if wi == sw {
			w &= ^uint64(0) << uint(start&63)
		}
		for w != 0 {
			lb := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if e.tryForward(lid, r, lb) {
				return
			}
		}
	}
	for wi := 0; wi <= sw && wi < e.wordsPerRouter; wi++ {
		w := e.candMask[base+wi]
		if wi == sw {
			w &= uint64(1)<<uint(start&63) - 1
		}
		for w != 0 {
			lb := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if e.tryForward(lid, r, lb) {
				return
			}
		}
	}
	next := start + 1
	if next == slots {
		next = 0
	}
	e.rrOut[lid] = int32(next)
}

// tryForward forwards the head flit of local slot lb onto link lid if a
// downstream VC accepts it.
func (e *engine) tryForward(lid int32, r, lb int) bool {
	s := int32(r*e.slotsPerRouter + lb)
	h := e.headFlit(s)
	downBase := e.linkDownBase[lid]
	var downVC int
	if h.isHead {
		downVC = e.pickDownVC(downBase, h)
		if downVC < 0 {
			return false
		}
		e.claimVC[s] = int8(downVC)
	} else {
		// Body flits follow the VC their head claimed from this slot;
		// the owner chain guarantees it is still theirs until the tail
		// passes, so only credit availability can block.
		downVC = int(e.claimVC[s])
		if e.free[downBase+int32(downVC)] <= 0 {
			return false
		}
	}
	f := e.popFlit(s, r)
	e.free[s]++
	ds := downBase + int32(downVC)
	e.free[ds]--
	if f.isHead {
		e.owner[ds] = f.pkt
	}
	if f.isTail {
		e.owner[ds] = nil
	}
	f.pathIdx++
	e.linkPush(lid, inflight{f: f, arriveAt: e.cycle + e.linkLat[lid], slot: ds})
	e.forwardedThisCycle = true
	next := lb + 1
	if next == int(e.numPorts[r])*e.numVCs {
		next = 0
	}
	e.rrOut[lid] = int32(next)
	return true
}

// pickDownVC selects the downstream VC for a flit, Duato-style: the
// packet's assigned layer is its escape VC (per-layer CDGs are acyclic),
// while physical VCs beyond the escape layers (indices >= VC.NumVCs) are
// adaptive and may be claimed by any packet. Heads prefer a free adaptive
// VC and fall back to their escape layer. Body flits never reach here:
// they follow the VC their head claimed via the claimVC/injVC caches.
// base is the destination slot with vc=0; returns -1 when blocked.
func (e *engine) pickDownVC(base int32, h *flit) int {
	for vcIdx := e.escapeVCs; vcIdx < e.numVCs; vcIdx++ {
		if e.owner[base+int32(vcIdx)] == nil && e.free[base+int32(vcIdx)] > 0 {
			return vcIdx
		}
	}
	lay := int32(h.pkt.layer)
	if e.owner[base+lay] == nil && e.free[base+lay] > 0 {
		return int(lay)
	}
	return -1
}

// inject pushes queued packet flits into each router's injection port.
func (e *engine) inject() {
	if e.queuedPkts == 0 {
		return
	}
	for r := 0; r < e.n; r++ {
		q := &e.injectQ[r]
		if q.empty() {
			continue
		}
		budget := e.cfg.InjectBandwidth
		base := int32(r * e.slotsPerRouter) // port 0, vc 0
		for budget > 0 && !q.empty() {
			p := q.front()
			f := flit{
				pkt:     p,
				pathIdx: 0,
				isHead:  p.flitsQueued == 0,
				isTail:  p.flitsQueued == p.flits-1,
			}
			// The injection buffer holds whole packets contiguously,
			// using the same adaptive/escape VC choice as link traversal.
			// Body flits reuse the head's claimed VC (injVC cache).
			var vcIdx int
			if f.isHead {
				vcIdx = e.pickDownVC(base, &f)
				if vcIdx < 0 {
					break
				}
				e.injVC[r] = int8(vcIdx)
			} else {
				vcIdx = int(e.injVC[r])
				if e.free[base+int32(vcIdx)] <= 0 {
					break
				}
			}
			s := base + int32(vcIdx)
			if f.isHead {
				e.owner[s] = p
			}
			e.pushFlit(s, r, f)
			e.free[s]--
			p.flitsQueued++
			budget--
			e.forwardedThisCycle = true
			if e.actBufRead != nil {
				e.actInjected++
			}
			if f.isTail {
				e.owner[s] = nil
				q.pop()
				e.queuedPkts--
			}
		}
	}
}
