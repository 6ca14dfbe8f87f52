package traffic

import (
	"math/rand"
	"testing"

	"netsmith/internal/layout"
)

func TestUniformDestinationDistribution(t *testing.T) {
	u := Uniform{N: 20}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		dst, flits, ok := u.Inject(3, rng)
		if !ok {
			t.Fatal("uniform must always inject")
		}
		if dst == 3 {
			t.Fatal("self destination")
		}
		if flits != ControlFlits && flits != DataFlits {
			t.Fatalf("flits = %d", flits)
		}
		counts[dst]++
	}
	// Each of the 19 destinations should get ~trials/19.
	want := trials / 19
	for d, c := range counts {
		if d == 3 {
			continue
		}
		if c < want/2 || c > want*2 {
			t.Errorf("dst %d count %d far from %d", d, c, want)
		}
	}
	if _, _, ok := u.OnDeliver(0, 1, rng); ok {
		t.Error("uniform has no replies")
	}
}

func TestUniformPacketMix(t *testing.T) {
	u := Uniform{N: 4}
	rng := rand.New(rand.NewSource(2))
	data := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		_, flits, _ := u.Inject(0, rng)
		if flits == DataFlits {
			data++
		}
	}
	if data < trials*4/10 || data > trials*6/10 {
		t.Errorf("data fraction %d/%d far from 50%%", data, trials)
	}
}

func TestShuffleFormula(t *testing.T) {
	// Paper: dest = 2src for src < n/2; (2src+1) mod n otherwise.
	s := Shuffle(20)
	cases := map[int]int{0: 0, 1: 2, 5: 10, 9: 18, 10: 1, 15: 11, 19: 19}
	for src, want := range cases {
		if got := s.Dest(src); got != want {
			t.Errorf("Dest(%d) = %d, want %d", src, got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	// Fixed points (0 and 19 for n=20) must not inject.
	if _, _, ok := s.Inject(0, rng); ok {
		t.Error("fixed point 0 must not inject")
	}
	if dst, _, ok := s.Inject(5, rng); !ok || dst != 10 {
		t.Errorf("Inject(5) = %d, want 10", dst)
	}
}

func TestShuffleWeightMatrix(t *testing.T) {
	s := Shuffle(20)
	w := s.WeightMatrix()
	nonzero := 0
	for src := range w {
		for dst := range w[src] {
			if w[src][dst] > 0 {
				nonzero++
				if dst != s.Dest(src) {
					t.Errorf("weight at (%d,%d) but Dest(%d)=%d", src, dst, src, s.Dest(src))
				}
			}
		}
	}
	if nonzero != 18 { // 20 minus 2 fixed points
		t.Errorf("nonzero weights = %d, want 18", nonzero)
	}
}

func TestMemoryPattern(t *testing.T) {
	g := layout.Grid4x5
	m := NewMemory(g.CoreRouters(), g.MemoryControllerRouters())
	rng := rand.New(rand.NewSource(4))
	// Cores send 1-flit requests to MCs only.
	for i := 0; i < 1000; i++ {
		src := g.CoreRouters()[rng.Intn(len(g.CoreRouters()))]
		dst, flits, ok := m.Inject(src, rng)
		if !ok {
			t.Fatal("cores must inject")
		}
		if flits != ControlFlits {
			t.Fatal("requests are control packets")
		}
		_, col := g.Pos(dst)
		if col != 0 && col != g.Cols-1 {
			t.Fatalf("request to non-MC router %d", dst)
		}
	}
	// MCs do not inject.
	if _, _, ok := m.Inject(g.MemoryControllerRouters()[0], rng); ok {
		t.Error("MCs must not originate requests")
	}
	// Delivery at MC generates a 9-flit reply to the requester.
	mc := g.MemoryControllerRouters()[0]
	core := g.CoreRouters()[0]
	if dst, flits, ok := m.OnDeliver(core, mc, rng); !ok || dst != core || flits != DataFlits {
		t.Errorf("OnDeliver at MC = (%d,%d,%v)", dst, flits, ok)
	}
	// Reply delivery at the core ends the chain.
	if _, _, ok := m.OnDeliver(mc, core, rng); ok {
		t.Error("reply delivery must not chain")
	}
}

func TestAvgFlitsPerPacket(t *testing.T) {
	if AvgFlitsPerPacket != 5.0 {
		t.Errorf("avg flits = %v, want 5 (1-flit control + 9-flit data, 50/50)", AvgFlitsPerPacket)
	}
}
