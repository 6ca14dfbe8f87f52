package traffic

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkPermutation asserts that a deterministic-destination pattern is
// injective over its originating sources and agrees with Originates.
func checkPermutation(t *testing.T, n int, dest func(int) int, orig func(int) bool) {
	t.Helper()
	seen := make(map[int]int)
	for src := 0; src < n; src++ {
		if !orig(src) {
			continue
		}
		d := dest(src)
		if d < 0 || d >= n || d == src {
			t.Fatalf("src %d: invalid destination %d", src, d)
		}
		if prev, dup := seen[d]; dup {
			t.Fatalf("destination %d shared by sources %d and %d", d, prev, src)
		}
		seen[d] = src
	}
}

func TestTransposePermutation(t *testing.T) {
	tr := Transpose(4, 5)
	checkPermutation(t, 20, tr.Dest, tr.Originates)
	// On a square grid transpose is an involution: twice returns the
	// source (on non-square grids it is a permutation but not its own
	// inverse, since the transposed geometry swaps Rows and Cols).
	sq := Transpose(4, 4)
	checkPermutation(t, 16, sq.Dest, sq.Originates)
	for src := 0; src < 16; src++ {
		if got := sq.Dest(sq.Dest(src)); got != src {
			t.Errorf("Dest(Dest(%d)) = %d", src, got)
		}
		// Diagonal routers are the fixed points.
		if sq.Originates(src) == (src/4 == src%4) {
			t.Errorf("Originates(%d) wrong for diagonal rule", src)
		}
	}
	// Router (r,c) maps to (c,r) of the transposed grid: index c*Rows+r.
	if got := tr.Dest(1*5 + 3); got != 3*4+1 {
		t.Errorf("Dest(8) = %d, want 13", got)
	}
	// (0,0) is a fixed point and must not inject.
	rng := rand.New(rand.NewSource(1))
	if _, _, ok := tr.Inject(0, rng); ok {
		t.Error("fixed point 0 must not inject")
	}
	if dst, _, ok := tr.Inject(7, rng); !ok || dst != tr.Dest(7) {
		t.Errorf("Inject(7) = %d,%v", dst, ok)
	}
}

func TestBitComplementPermutation(t *testing.T) {
	// Power-of-two node count: the full complement permutation, no fixed
	// points, every source injects.
	b := BitComplement(16)
	checkPermutation(t, 16, b.Dest, b.Originates)
	for src := 0; src < 16; src++ {
		if !b.Originates(src) {
			t.Fatalf("source %d must originate on a power-of-two network", src)
		}
		if got := b.Dest(src); got != 15-src {
			t.Errorf("Dest(%d) = %d, want %d", src, got, 15-src)
		}
	}
	// Non-power-of-two: complements landing outside the network do not
	// inject (e.g. ^0 = 31 >= 20), in-range ones still do.
	b = BitComplement(20)
	checkPermutation(t, 20, b.Dest, b.Originates)
	rng := rand.New(rand.NewSource(2))
	if _, _, ok := b.Inject(0, rng); ok {
		t.Error("src 0 has no in-range complement on 20 nodes")
	}
	if dst, _, ok := b.Inject(12, rng); !ok || dst != 19 {
		t.Errorf("Inject(12) = %d,%v, want 19", dst, ok)
	}
}

func TestBitReversePermutation(t *testing.T) {
	b := BitReverse(16)
	checkPermutation(t, 16, b.Dest, b.Originates)
	// 4-bit reversal: 0b0001 -> 0b1000, 0b0110 -> 0b0110 (fixed point).
	if got := b.Dest(1); got != 8 {
		t.Errorf("Dest(1) = %d, want 8", got)
	}
	if b.Originates(6) {
		t.Error("palindromic address 6 (0110) is a fixed point")
	}
	b = BitReverse(20)
	checkPermutation(t, 20, b.Dest, b.Originates)
}

func TestTornadoFormula(t *testing.T) {
	// 4x5 grid: rows shift by ceil(4/2)-1 = 1, cols by ceil(5/2)-1 = 2.
	tor := Tornado(4, 5)
	checkPermutation(t, 20, tor.Dest, tor.Originates)
	for src := 0; src < 20; src++ {
		r, c := src/5, src%5
		want := ((r+1)%4)*5 + (c+2)%5
		if got := tor.Dest(src); got != want {
			t.Errorf("Dest(%d) = %d, want %d", src, got, want)
		}
		if !tor.Originates(src) {
			t.Errorf("tornado on 4x5 has no fixed points, but %d does not originate", src)
		}
	}
	// Degenerate 1x2 grid: shifts are 0 in rows and 0 in cols -> all
	// fixed points, nobody injects.
	small := Tornado(1, 2)
	for src := 0; src < 2; src++ {
		if small.Originates(src) {
			t.Errorf("1x2 tornado source %d must not originate", src)
		}
	}
}

// TestFixedRngUse pins the rng use that keeps matrix bytes fixed: Inject
// at a fixed point draws nothing, Inject at an originating source draws
// exactly one Intn(2) (the packet size), and Originates agrees with
// Inject's ok without drawing. Each check compares the next draw with a
// twin rng advanced by hand.
func TestFixedRngUse(t *testing.T) {
	for _, g := range [][2]int{{4, 5}, {4, 4}, {1, 8}} {
		rows, cols := g[0], g[1]
		n := rows * cols
		for _, p := range []Fixed{Shuffle(n), Transpose(rows, cols), BitComplement(n), BitReverse(n), Tornado(rows, cols)} {
			for src := 0; src < n; src++ {
				rng := rand.New(rand.NewSource(int64(src) + 1))
				twin := rand.New(rand.NewSource(int64(src) + 1))
				orig := p.Originates(src)
				dst, flits, ok := p.Inject(src, rng)
				if ok != orig || p.Originates(src) != orig {
					t.Fatalf("%s %dx%d: Inject(%d) ok=%v, Originates=%v", p.Name(), rows, cols, src, ok, orig)
				}
				if ok {
					want := DataFlits
					if twin.Intn(2) == 0 {
						want = ControlFlits
					}
					if dst != p.Dest(src) || flits != want {
						t.Fatalf("%s %dx%d: Inject(%d) = (%d, %d), want (%d, %d)", p.Name(), rows, cols, src, dst, flits, p.Dest(src), want)
					}
				}
				if got, want := rng.Int63(), twin.Int63(); got != want {
					t.Fatalf("%s %dx%d: Inject(%d) (originates=%v) drew the wrong number of values", p.Name(), rows, cols, src, orig)
				}
			}
		}
	}
}

func TestHotspotConcentration(t *testing.T) {
	const n, trials = 20, 40000
	hot := []int{0, 19}
	weight := 0.6
	h, err := NewHotspot(n, hot, weight)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	src := 5
	hits := 0
	for i := 0; i < trials; i++ {
		dst, _, ok := h.Inject(src, rng)
		if !ok || dst == src || dst < 0 || dst >= n {
			t.Fatalf("hotspot Inject = (%d, %v)", dst, ok)
		}
		if dst == 0 || dst == 19 {
			hits++
		}
	}
	// Hot traffic (weight) plus the uniform background's share of the
	// hot set: w + (1-w) * |hot| / (n-1).
	want := weight + (1-weight)*float64(len(hot))/float64(n-1)
	got := float64(hits) / trials
	if got < want-0.02 || got > want+0.02 {
		t.Errorf("hot fraction %.4f far from %.4f (weight %.2f)", got, want, weight)
	}
	// A hot source never targets itself; with one hot router the hot
	// draw falls back to uniform background.
	solo, err := NewHotspot(n, []int{3}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		dst, _, ok := solo.Inject(3, rng)
		if !ok || dst == 3 {
			t.Fatalf("hot source 3 drew dst %d ok=%v", dst, ok)
		}
	}
	// Validation.
	if _, err := NewHotspot(n, []int{n}, 0.5); err == nil {
		t.Error("out-of-range hot router accepted")
	}
	if _, err := NewHotspot(n, nil, 0.5); err == nil {
		t.Error("empty hot set accepted")
	}
	if _, err := NewHotspot(n, []int{1}, 1.5); err == nil {
		t.Error("weight > 1 accepted")
	}
}

func TestBurstyDutyCycle(t *testing.T) {
	const n, trials = 8, 60000
	b, err := NewBursty(Uniform{N: n}, n, 0.05, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// The chain's stationary ON probability.
	if got := b.POffOn / (b.POnOff + b.POffOn); got < 0.75-1e-12 || got > 0.75+1e-12 {
		t.Fatalf("duty cycle %v, want 0.75", got)
	}
	rng := rand.New(rand.NewSource(11))
	on := 0
	for i := 0; i < trials; i++ {
		if _, _, ok := b.Inject(0, rng); ok {
			on++
		}
	}
	got := float64(on) / trials
	// Mean burst length is 1/0.05 = 20 opportunities, so trials/20 =
	// 3000 bursts: the observed duty cycle should sit within a few
	// percent of the stationary 0.75.
	if got < 0.70 || got > 0.80 {
		t.Errorf("observed duty cycle %.4f far from 0.75", got)
	}
	// Each source has an independent chain; a fresh source starts ON.
	if !b.Originates(3) {
		t.Error("bursty must originate wherever its base does")
	}
	// Replies pass through to the base pattern ungated.
	m := NewMemory([]int{1, 2}, []int{0})
	bm, err := NewBursty(m, 3, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if dst, flits, ok := bm.OnDeliver(1, 0, rng); !ok || dst != 1 || flits != DataFlits {
		t.Error("bursty must forward OnDeliver to the base pattern")
	}
	if bm.Originates(0) {
		t.Error("bursty over memory: MCs do not originate")
	}
	if _, err := NewBursty(nil, 4, 0.5, 0.5); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewBursty(Uniform{N: 4}, 4, 0, 0.5); err == nil {
		t.Error("zero transition probability accepted")
	}
}

func TestReplayPattern(t *testing.T) {
	recs := []TraceRecord{
		{Cycle: 30, Src: 0, Dst: 2, Flits: 9},
		{Cycle: 10, Src: 0, Dst: 1, Flits: 1},
		{Cycle: 20, Src: 2, Dst: 0, Flits: 1},
	}
	r, err := NewReplay("t", 4, recs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Source 0 replays its records in cycle order.
	if dst, flits, ok := r.Inject(0, rng); !ok || dst != 1 || flits != 1 {
		t.Fatalf("first replay = (%d,%d,%v), want (1,1,true)", dst, flits, ok)
	}
	if dst, flits, ok := r.Inject(0, rng); !ok || dst != 2 || flits != 9 {
		t.Fatalf("second replay = (%d,%d,%v), want (2,9,true)", dst, flits, ok)
	}
	// Sources without records never originate; recorded ones do.
	if r.Originates(1) || r.Originates(3) {
		t.Error("silent sources must not originate")
	}
	if !r.Originates(0) || !r.Originates(2) {
		t.Error("recorded sources must originate")
	}
	// The replay wraps around.
	for i := 0; i < 5; i++ {
		wantDst := []int{1, 2, 1, 2, 1}[i]
		if dst, _, ok := r.Inject(0, rng); !ok || dst != wantDst {
			t.Fatalf("loop step %d: dst %d ok=%v, want %d", i, dst, ok, wantDst)
		}
	}
	// Validation: out-of-range, self-sends and empty traces rejected.
	if _, err := NewReplay("t", 2, recs); err == nil {
		t.Error("out-of-range record accepted")
	}
	if _, err := NewReplay("t", 4, []TraceRecord{{Src: 1, Dst: 1, Flits: 1}}); err == nil {
		t.Error("self-send accepted")
	}
	if _, err := NewReplay("t", 4, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	recs := []TraceRecord{
		{Cycle: 1, Src: 0, Dst: 3, Flits: 1},
		{Cycle: 2, Src: 3, Dst: 0, Flits: 9},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
	// Comments and blank lines are ignored; malformed lines rejected.
	if _, err := ParseTrace(bytes.NewBufferString("# comment\n\n5,1,2,1\n")); err != nil {
		t.Errorf("comments/blanks: %v", err)
	}
	// A header is accepted even after leading comments/blank lines.
	got, err = ParseTrace(bytes.NewBufferString("# recorded by tool\n\ncycle,src,dst,flits\n5,1,2,1\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("header after comment: %v (%d records)", err, len(got))
	}
	// Only one header is forgiven; a second non-numeric line is an error.
	if _, err := ParseTrace(bytes.NewBufferString("cycle,src,dst,flits\ncycle,src,dst,flits\n5,1,2,1\n")); err == nil {
		t.Error("double header accepted")
	}
	if _, err := ParseTrace(bytes.NewBufferString("5,1,2\n")); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ParseTrace(bytes.NewBufferString("cycle,src,dst,flits\n1,2,x,1\n")); err == nil {
		t.Error("bad field accepted")
	}
}
