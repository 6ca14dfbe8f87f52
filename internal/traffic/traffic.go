// Package traffic provides the synthetic traffic patterns used by the
// paper's evaluation: uniform random (coherence-style all-to-all),
// shuffle, and memory (core-to-memory-controller request/reply hotspot)
// traffic, with the 8-byte control / 72-byte data packet mix of the
// Garnet standalone setup.
package traffic

import "math/rand"

// Flit sizes: links are 8 bytes wide, so control packets are 1 flit and
// data packets ceil(72/8) = 9 flits.
const (
	ControlFlits = 1
	DataFlits    = 9
)

// AvgFlitsPerPacket is the expected packet size when control and data
// packets are injected with equal likelihood.
const AvgFlitsPerPacket = float64(ControlFlits+DataFlits) / 2

// Pattern decides the destination and size of injected packets, and may
// generate replies on delivery (memory traffic).
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Inject returns the destination and flit count for a new packet
	// injected at src. ok=false means this opportunity injects nothing —
	// either because src never originates traffic (e.g. memory
	// controllers do not issue requests, permutation fixed points have
	// no partner) or, for stateful patterns, because the source is
	// transiently silent (e.g. the OFF phase of bursty modulation).
	// A source that does originate must return ok=true with a valid
	// dst != src on every opportunity it injects; patterns must not
	// randomly drop opportunities of an originating source (resample
	// internally instead).
	Inject(src int, rng *rand.Rand) (dst, flits int, ok bool)
	// OnDeliver is called when a packet reaches dst; a returned reply
	// (ok=true) is injected at dst back toward src. Patterns without
	// replies return ok=false.
	OnDeliver(src, dst int, rng *rand.Rand) (replyDst, replyFlits int, ok bool)
	// Originates reports whether src ever originates traffic. Unlike
	// Inject's ok result it must not depend on rng draws or mutable
	// state, so the simulator can count injecting nodes (for per-node
	// throughput normalization) without perturbing the pattern.
	Originates(src int) bool
}

// mixedSize returns control or data size with equal likelihood.
func mixedSize(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return ControlFlits
	}
	return DataFlits
}

// Uniform is uniform-random all-to-all traffic (the paper's "coherence
// traffic" proxy): every node sends to every other node with equal
// probability, 50/50 control/data.
type Uniform struct{ N int }

// Name implements Pattern.
func (u Uniform) Name() string { return "uniform" }

// Inject implements Pattern.
func (u Uniform) Inject(src int, rng *rand.Rand) (int, int, bool) {
	if u.N < 2 {
		return 0, 0, false
	}
	dst := rng.Intn(u.N - 1)
	if dst >= src {
		dst++
	}
	return dst, mixedSize(rng), true
}

// OnDeliver implements Pattern.
func (u Uniform) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) { return 0, 0, false }

// Originates implements Pattern.
func (u Uniform) Originates(src int) bool { return u.N >= 2 }

// Memory models memory traffic: core-attached routers issue 1-flit read
// requests to uniformly chosen memory-controller routers, which answer
// with 9-flit data replies. MCs do not originate traffic. The reply
// hotspot at MCs makes this a tighter bottleneck than the sparsest cut,
// as the paper observes in Fig. 6(b).
type Memory struct {
	Cores []int
	MCs   []int
	core  map[int]bool
}

// NewMemory builds the pattern from core and MC router lists.
func NewMemory(cores, mcs []int) *Memory {
	m := &Memory{Cores: cores, MCs: mcs, core: make(map[int]bool)}
	for _, c := range cores {
		m.core[c] = true
	}
	return m
}

// Name implements Pattern.
func (m *Memory) Name() string { return "memory" }

// Inject implements Pattern.
func (m *Memory) Inject(src int, rng *rand.Rand) (int, int, bool) {
	if !m.core[src] {
		return 0, 0, false // MCs only reply
	}
	return m.MCs[rng.Intn(len(m.MCs))], ControlFlits, true
}

// OnDeliver implements Pattern: a request arriving at an MC triggers a
// data reply to the requesting core.
func (m *Memory) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) {
	if m.core[dst] {
		return 0, 0, false // reply delivered; chain ends
	}
	return src, DataFlits, true
}

// Originates implements Pattern: only cores send requests.
func (m *Memory) Originates(src int) bool { return m.core[src] }
