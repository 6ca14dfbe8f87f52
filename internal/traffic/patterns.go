package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// The patterns in this file are the paper's shuffle plus the classic
// adversarial and structured patterns of the NoC literature (Dally &
// Towles ch. 3): matrix transpose, bit-complement, bit-reverse, tornado,
// and a configurable hotspot. All are stateless and safe to share across
// concurrent simulations; the stateful patterns (bursty MMPP modulation,
// trace replay) live in their own files and must be constructed per run.

// fixedKind selects the destination formula of a Fixed pattern.
type fixedKind uint8

const (
	kindShuffle fixedKind = iota
	kindTranspose
	kindBitComplement
	kindBitReverse
	kindTornado
)

var fixedNames = [...]string{"shuffle", "transpose", "bitcomp", "bitrev", "tornado"}

// Fixed is a fixed-destination pattern: each source sends every packet
// to one destination given by a formula over the rows x cols grid, 50/50
// control/data. Sources whose destination is themselves or falls outside
// the network are fixed points and never inject. Shuffle, Transpose,
// BitComplement, BitReverse and Tornado build the five formulas.
type Fixed struct {
	kind       fixedKind
	rows, cols int
}

// Shuffle is the gem5 shuffle permutation over n nodes: dst = 2*src for
// the lower half, (2*src+1) mod n for the upper half (far
// source-destination pairs).
func Shuffle(n int) Fixed { return Fixed{kind: kindShuffle, rows: 1, cols: n} }

// Transpose maps router (r, c) of a rows x cols grid to (c, r): the
// row-major matrix-transpose permutation, well defined for any grid
// shape. Diagonal routers (and all routers of a 1-row grid transposed
// onto themselves) are fixed points.
func Transpose(rows, cols int) Fixed { return Fixed{kind: kindTranspose, rows: rows, cols: cols} }

// BitComplement sends src to the bitwise complement of its address
// (dst = ^src over the minimal address width). On power-of-two node
// counts this is the full complement permutation; otherwise sources
// whose complement falls outside the network do not inject.
func BitComplement(n int) Fixed { return Fixed{kind: kindBitComplement, rows: 1, cols: n} }

// BitReverse sends src to the bit-reversal of its address (the FFT
// communication pattern). As with BitComplement, non-power-of-two node
// counts leave some sources without an in-range destination.
func BitReverse(n int) Fixed { return Fixed{kind: kindBitReverse, rows: 1, cols: n} }

// Tornado shifts each grid dimension by ceil(k/2)-1 hops with wraparound
// (dst_i = src_i + ceil(k_i/2) - 1 mod k_i): the adversarial pattern
// that defeats minimal routing on rings and tori by making every flow
// travel almost half-way around each dimension.
func Tornado(rows, cols int) Fixed { return Fixed{kind: kindTornado, rows: rows, cols: cols} }

// Name implements Pattern.
func (f Fixed) Name() string { return fixedNames[f.kind] }

// Dest returns the destination of src, src itself at a fixed point of
// the formula, or -1 when the destination is outside the network.
func (f Fixed) Dest(src int) int {
	n := f.rows * f.cols
	var dst int
	switch f.kind {
	case kindShuffle:
		if src < n/2 {
			dst = 2 * src
		} else {
			dst = (2*src + 1) % n
		}
	case kindTranspose:
		dst = src%f.cols*f.rows + src/f.cols
	case kindBitComplement:
		dst = src ^ (1<<addrBits(n) - 1)
	case kindBitReverse:
		dst = int(bits.Reverse64(uint64(src)) >> (64 - addrBits(n)))
	case kindTornado:
		r, c := src/f.cols, src%f.cols
		dst = (r+tornadoShift(f.rows))%f.rows*f.cols + (c+tornadoShift(f.cols))%f.cols
	}
	if dst >= n {
		return -1
	}
	return dst
}

// Inject implements Pattern. A fixed point returns before any rng
// draw; an originating source draws once, for the packet size.
func (f Fixed) Inject(src int, rng *rand.Rand) (int, int, bool) {
	dst := f.Dest(src)
	if dst < 0 || dst == src {
		return 0, 0, false
	}
	return dst, mixedSize(rng), true
}

// OnDeliver implements Pattern.
func (f Fixed) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) { return 0, 0, false }

// Originates implements Pattern.
func (f Fixed) Originates(src int) bool {
	dst := f.Dest(src)
	return dst >= 0 && dst != src
}

// WeightMatrix returns the pattern's demand matrix for pattern-optimized
// synthesis (NS-ShufOpt reads the shuffle's).
func (f Fixed) WeightMatrix() [][]float64 {
	n := f.rows * f.cols
	w := make([][]float64, n)
	for src := range w {
		w[src] = make([]float64, n)
		if f.Originates(src) {
			w[src][f.Dest(src)] = 1
		}
	}
	return w
}

// addrBits returns the address width covering 0..n-1 (>= 1).
func addrBits(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

func tornadoShift(k int) int { return (k+1)/2 - 1 }

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

// Originates implements Pattern.
func (h *Hotspot) Originates(src int) bool { return h.N >= 2 }
