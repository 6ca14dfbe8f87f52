package traffic

import (
	"fmt"
	"math/rand"
)

// Bursty modulates a base pattern with a per-source two-state Markov
// chain (a discrete-time on/off MMPP): each injection opportunity first
// advances the source's chain, then injects via the base pattern only in
// the ON state. Burst and gap lengths are geometric with means
// 1/POnOff and 1/POffOn opportunities, and the long-run duty cycle is
// POffOn / (POnOff + POffOn).
//
// Bursty keeps per-source state and is NOT safe to share across
// concurrent simulations — construct one instance per run (the scenario
// matrix harness does this via its pattern factories).
type Bursty struct {
	Base   Pattern
	POnOff float64 // ON -> OFF transition probability per opportunity
	POffOn float64 // OFF -> ON transition probability per opportunity

	off []bool // per-source chain state; zero value = ON
}

// NewBursty validates and builds the modulated pattern for n sources.
func NewBursty(base Pattern, n int, pOnOff, pOffOn float64) (*Bursty, error) {
	if base == nil {
		return nil, fmt.Errorf("traffic: bursty needs a base pattern")
	}
	if !(0 < pOnOff && pOnOff <= 1 && 0 < pOffOn && pOffOn <= 1) {
		return nil, fmt.Errorf("traffic: bursty transition probabilities (%g, %g) must be in (0,1]", pOnOff, pOffOn)
	}
	return &Bursty{Base: base, POnOff: pOnOff, POffOn: pOffOn, off: make([]bool, n)}, nil
}

// Name implements Pattern.
func (b *Bursty) Name() string { return "bursty/" + b.Base.Name() }

// Inject implements Pattern: advance the source's on/off chain, then
// delegate to the base pattern when ON.
func (b *Bursty) Inject(src int, rng *rand.Rand) (int, int, bool) {
	if b.off[src] {
		if rng.Float64() < b.POffOn {
			b.off[src] = false
		}
	} else if rng.Float64() < b.POnOff {
		b.off[src] = true
	}
	if b.off[src] {
		return 0, 0, false
	}
	return b.Base.Inject(src, rng)
}

// OnDeliver implements Pattern: replies are not gated by the burst state.
func (b *Bursty) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) {
	return b.Base.OnDeliver(src, dst, rng)
}

// Originates implements Pattern: burst gating is transient, so a
// source originates iff it does under the base pattern.
func (b *Bursty) Originates(src int) bool { return b.Base.Originates(src) }
