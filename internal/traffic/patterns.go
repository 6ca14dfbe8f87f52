package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// The patterns in this file extend the paper's three workloads with the
// classic adversarial and structured patterns of the NoC literature
// (Dally & Towles ch. 3): matrix transpose, bit-complement, bit-reverse,
// tornado, and a configurable hotspot. All are stateless and safe to
// share across concurrent simulations; the stateful patterns (bursty
// MMPP modulation, trace replay) live in their own files and must be
// constructed per run.

// injectFixed implements Inject for fixed-destination patterns whose
// Dest returns -1 (or src itself) for non-originating sources.
func injectFixed(dest func(int) int, src int, rng *rand.Rand) (int, int, bool) {
	dst := dest(src)
	if dst < 0 || dst == src {
		return 0, 0, false
	}
	return dst, mixedSize(rng), true
}

// originatesFixed is the matching Originator implementation.
func originatesFixed(dest func(int) int, src int) bool {
	dst := dest(src)
	return dst >= 0 && dst != src
}

// Transpose maps router (r, c) of a Rows x Cols grid to (c, r): the
// row-major matrix-transpose permutation, well defined for any grid
// shape. Diagonal routers (and all routers of a 1-row grid transposed
// onto themselves) are fixed points and do not inject.
type Transpose struct{ Rows, Cols int }

// Name implements Pattern.
func (t Transpose) Name() string { return "transpose" }

// Dest returns the transpose destination for src.
func (t Transpose) Dest(src int) int {
	r, c := src/t.Cols, src%t.Cols
	return c*t.Rows + r
}

// Inject implements Pattern.
func (t Transpose) Inject(src int, rng *rand.Rand) (int, int, bool) {
	return injectFixed(t.Dest, src, rng)
}

// OnDeliver implements Pattern.
func (t Transpose) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) { return 0, 0, false }

// Originates implements Originator.
func (t Transpose) Originates(src int) bool { return originatesFixed(t.Dest, src) }

// addrBits returns the address width covering 0..n-1 (>= 1).
func addrBits(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// BitComplement sends src to the bitwise complement of its address
// (dst = ^src over the minimal address width). On power-of-two node
// counts this is the full complement permutation; otherwise sources
// whose complement falls outside the network do not inject.
type BitComplement struct{ N int }

// Name implements Pattern.
func (b BitComplement) Name() string { return "bitcomp" }

// Dest returns the complement destination, or -1 if it is out of range.
func (b BitComplement) Dest(src int) int {
	dst := src ^ (1<<addrBits(b.N) - 1)
	if dst >= b.N {
		return -1
	}
	return dst
}

// Inject implements Pattern.
func (b BitComplement) Inject(src int, rng *rand.Rand) (int, int, bool) {
	return injectFixed(b.Dest, src, rng)
}

// OnDeliver implements Pattern.
func (b BitComplement) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) { return 0, 0, false }

// Originates implements Originator.
func (b BitComplement) Originates(src int) bool { return originatesFixed(b.Dest, src) }

// BitReverse sends src to the bit-reversal of its address (the FFT
// communication pattern). As with BitComplement, non-power-of-two node
// counts leave some sources without an in-range destination.
type BitReverse struct{ N int }

// Name implements Pattern.
func (b BitReverse) Name() string { return "bitrev" }

// Dest returns the bit-reversed destination, or -1 if it is out of range.
func (b BitReverse) Dest(src int) int {
	w := addrBits(b.N)
	dst := int(bits.Reverse64(uint64(src)) >> (64 - w))
	if dst >= b.N {
		return -1
	}
	return dst
}

// Inject implements Pattern.
func (b BitReverse) Inject(src int, rng *rand.Rand) (int, int, bool) {
	return injectFixed(b.Dest, src, rng)
}

// OnDeliver implements Pattern.
func (b BitReverse) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) { return 0, 0, false }

// Originates implements Originator.
func (b BitReverse) Originates(src int) bool { return originatesFixed(b.Dest, src) }

// Tornado shifts each grid dimension by ceil(k/2)-1 hops with wraparound
// (dst_i = src_i + ceil(k_i/2) - 1 mod k_i): the adversarial pattern
// that defeats minimal routing on rings and tori by making every flow
// travel almost half-way around each dimension.
type Tornado struct{ Rows, Cols int }

// Name implements Pattern.
func (t Tornado) Name() string { return "tornado" }

func tornadoShift(k int) int { return (k+1)/2 - 1 }

// Dest returns the tornado destination for src.
func (t Tornado) Dest(src int) int {
	r, c := src/t.Cols, src%t.Cols
	r = (r + tornadoShift(t.Rows)) % t.Rows
	c = (c + tornadoShift(t.Cols)) % t.Cols
	return r*t.Cols + c
}

// Inject implements Pattern.
func (t Tornado) Inject(src int, rng *rand.Rand) (int, int, bool) {
	return injectFixed(t.Dest, src, rng)
}

// OnDeliver implements Pattern.
func (t Tornado) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) { return 0, 0, false }

// Originates implements Originator.
func (t Tornado) Originates(src int) bool { return originatesFixed(t.Dest, src) }

// Hotspot sends a configurable fraction of traffic to a small set of hot
// routers and the rest uniformly: with probability Weight the packet
// targets a uniformly chosen hot router, otherwise any other router.
// The expected fraction of traffic landing on the hot set is therefore
// Weight plus the uniform background's share.
type Hotspot struct {
	N      int
	Hot    []int   // hot destination routers (non-empty)
	Weight float64 // probability in [0,1] that a packet targets the hot set
}

// NewHotspot validates and builds a hotspot pattern.
func NewHotspot(n int, hot []int, weight float64) (*Hotspot, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: hotspot needs >= 2 nodes, got %d", n)
	}
	if len(hot) == 0 {
		return nil, fmt.Errorf("traffic: hotspot needs at least one hot router")
	}
	seen := make(map[int]bool, len(hot))
	for _, h := range hot {
		if h < 0 || h >= n {
			return nil, fmt.Errorf("traffic: hot router %d out of range [0,%d)", h, n)
		}
		if seen[h] {
			return nil, fmt.Errorf("traffic: duplicate hot router %d", h)
		}
		seen[h] = true
	}
	if !(0 <= weight && weight <= 1) {
		return nil, fmt.Errorf("traffic: hotspot weight %g outside [0,1]", weight)
	}
	return &Hotspot{N: n, Hot: hot, Weight: weight}, nil
}

// Name implements Pattern.
func (h *Hotspot) Name() string { return "hotspot" }

// Inject implements Pattern.
func (h *Hotspot) Inject(src int, rng *rand.Rand) (int, int, bool) {
	if rng.Float64() < h.Weight {
		// Uniform over the hot set excluding src (if src itself is hot
		// and the only hot router, fall through to background traffic).
		if dst, ok := pickExcluding(h.Hot, src, rng); ok {
			return dst, mixedSize(rng), true
		}
	}
	dst := rng.Intn(h.N - 1)
	if dst >= src {
		dst++
	}
	return dst, mixedSize(rng), true
}

// pickExcluding draws uniformly from set \ {excl}.
func pickExcluding(set []int, excl int, rng *rand.Rand) (int, bool) {
	k := len(set)
	for i := 0; i < k; i++ {
		if set[i] == excl {
			if k == 1 {
				return 0, false
			}
			j := rng.Intn(k - 1)
			if j >= i {
				j++
			}
			return set[j], true
		}
	}
	return set[rng.Intn(k)], true
}

// OnDeliver implements Pattern.
func (h *Hotspot) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) { return 0, 0, false }

// Originates implements Originator.
func (h *Hotspot) Originates(src int) bool { return h.N >= 2 }

// NextInjectionAfter implements InjectionHinter for the fixed
// permutation patterns: non-fixed sources are always eligible, and
// a pattern with no originating source at all never injects (its
// Inject is a permanent rng-free no-op).

// NextInjectionAfter implements InjectionHinter.
func (t Transpose) NextInjectionAfter(cycle int64) int64 {
	return hintFixed(t.Dest, t.Rows*t.Cols, cycle)
}

// NextInjectionAfter implements InjectionHinter.
func (b BitComplement) NextInjectionAfter(cycle int64) int64 {
	return hintFixed(b.Dest, b.N, cycle)
}

// NextInjectionAfter implements InjectionHinter.
func (b BitReverse) NextInjectionAfter(cycle int64) int64 {
	return hintFixed(b.Dest, b.N, cycle)
}

// NextInjectionAfter implements InjectionHinter.
func (t Tornado) NextInjectionAfter(cycle int64) int64 {
	return hintFixed(t.Dest, t.Rows*t.Cols, cycle)
}

// NextInjectionAfter implements InjectionHinter: some node always
// injects.
func (h *Hotspot) NextInjectionAfter(cycle int64) int64 { return cycle + 1 }

// hintFixed answers NextInjectionAfter for a fixed-destination pattern:
// conservative cycle+1 while any source originates, Never when none do.
// The O(n) scan only runs in the degenerate all-fixed-point case worth
// Never; any real pattern exits on its first originating source.
func hintFixed(dest func(int) int, n int, cycle int64) int64 {
	for src := 0; src < n; src++ {
		if originatesFixed(dest, src) {
			return cycle + 1
		}
	}
	return Never
}
