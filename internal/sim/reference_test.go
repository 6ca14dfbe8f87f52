package sim

// runReference is the stepping oracle the engine is checked against:
// the plain loop that the event scan and the slot tables must reproduce
// bit for bit. It visits every router and every out-link in
// router-major order every cycle, and advances each router's
// clock-domain accumulator once per cycle instead of reading slot
// tables. Ejection and switch allocation run on every service slot, so
// the round-robin catch-up never fires.
func runReference(c Config) (*Result, error) {
	cfg, err := defaulted(c)
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg)
	rate := make([]float64, e.n)
	acc := make([]float64, e.n)
	slots := make([]int64, e.n)
	active := make([]bool, e.n)
	for r := range rate {
		rate[r] = 1
		if r < len(cfg.NodeRate) && cfg.NodeRate[r] > 0 {
			rate[r] = cfg.NodeRate[r]
		}
	}
	total := int64(cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles)
	measStart := int64(cfg.WarmupCycles)
	measEnd := measStart + int64(cfg.MeasureCycles)
	idle, idleLimit := 0, 4*(linkLatency+8)*e.n
	for e.cycle = 0; e.cycle < total; e.cycle++ {
		if e.nextBoundary < len(e.boundaries) && e.boundaries[e.nextBoundary] == e.cycle {
			e.applyFaultBoundary()
			e.nextBoundary++
		}
		e.forwardedThisCycle = false
		e.deliverArrivals()
		for r := range active {
			active[r] = rate[r] >= 1
			if !active[r] {
				acc[r] += rate[r]
				if acc[r] >= 1 {
					acc[r]--
					active[r] = true
				}
			}
			if active[r] {
				slots[r]++
			}
		}
		for r := range active {
			if active[r] {
				e.eject(r, slots[r])
			}
		}
		for r := range active {
			if !active[r] {
				continue
			}
			for _, v := range cfg.Topo.Out(r) {
				e.allocateOutput(int32(cfg.Topo.LinkID(r, v)), r, slots[r])
			}
		}
		if e.cycle < measEnd {
			e.generate(e.cycle >= measStart)
		}
		e.inject()
		if e.forwardedThisCycle || e.networkEmpty() {
			idle = 0
		} else if idle++; idle > idleLimit {
			return &Result{Stalled: true}, nil
		}
		if e.cycle >= measEnd && e.pendingMeasured() == 0 {
			break
		}
	}
	return e.result()
}
