package fullsys

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/synth"
)

var (
	meshSysOnce sync.Once
	meshSys     *System
	meshSysErr  error
)

// buildMeshSystem builds the 84-router mesh system once and shares it
// across tests (construction involves 84-node path enumeration + MCLB).
func buildMeshSystem(t *testing.T) *System {
	t.Helper()
	meshSysOnce.Do(func() {
		meshSys, meshSysErr = Build(expert.Mesh(layout.Grid4x5), 1)
	})
	if meshSysErr != nil {
		t.Fatal(meshSysErr)
	}
	return meshSys
}

func TestBuildStructure(t *testing.T) {
	sys := buildMeshSystem(t)
	if sys.Net.N() != 84 {
		t.Fatalf("full system has %d routers, want 84", sys.Net.N())
	}
	if len(sys.CoreRouters) != 64 {
		t.Errorf("cores = %d, want 64", len(sys.CoreRouters))
	}
	if len(sys.MCRouters) != 8 {
		t.Errorf("MC routers = %d, want 8", len(sys.MCRouters))
	}
	if !sys.Net.IsConnected() {
		t.Fatal("combined network must be strongly connected")
	}
	// Every core has exactly one CDC link to the NoI.
	for _, core := range sys.CoreRouters {
		cdc := 0
		for _, v := range sys.Net.Out(core) {
			if v < 20 {
				cdc++
			}
		}
		if cdc != 1 {
			t.Errorf("core %d has %d CDC links, want 1", core, cdc)
		}
	}
	// NoI router core counts: middle columns 4, edge columns 2.
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			noi := layout.Grid4x5.Router(r, c)
			cores := 0
			for _, v := range sys.Net.Out(noi) {
				if v >= 20 {
					cores++
				}
			}
			want := 4
			if c == 0 || c == 4 {
				want = 2
			}
			if cores != want {
				t.Errorf("NoI router (%d,%d) serves %d cores, want %d", r, c, cores, want)
			}
		}
	}
	// Chiplet isolation: no mesh link crosses the chiplet boundary.
	if sys.Net.Has(coreID(0, 3), coreID(0, 4)) || sys.Net.Has(coreID(3, 0), coreID(4, 0)) {
		t.Error("NoC mesh links must not cross chiplet boundaries")
	}
}

// TestBuildGoldenLayering pins the VC layers of the two Figure 8
// systems the parsec benchmark builds: the mesh NoI with expert routing
// and the NS-LatOp-medium NoI (seed 42, 20000 iterations, 4 restarts)
// with MCLB, both at seed 1. The digest is the SHA-256 of
// (NumVCs, LayerOf).
func TestBuildGoldenLayering(t *testing.T) {
	ns, err := synth.Generate(synth.MatrixNSConfig(layout.Grid4x5, layout.Medium, 0, 0, 42, 20000, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func() (*System, error)
		want  string
	}{
		{"mesh-expert", func() (*System, error) { return BuildExpert(expert.Mesh(layout.Grid4x5), 1) }, "f01b08d69c1d1ae10187f5c460c67125ece62943a36fb391bca15b0572b8189c"},
		{"ns-latop-medium", func() (*System, error) { return Build(ns.Topology, 1) }, "b50dd2d38cf2dea17eda54e737682f0d900fde42fa91da028c9421124d1aa3c4"},
	} {
		sys, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := json.Marshal([]any{sys.VC.NumVCs, sys.VC.LayerOf})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: layering digest %s, want %s", c.name, got, c.want)
		}
	}
}

func TestBuildRejectsWrongGrid(t *testing.T) {
	if _, err := Build(expert.Mesh(layout.Grid6x5), 1); err == nil {
		t.Error("non-4x5 NoI must be rejected")
	}
}

func TestNodeRatesAndCDC(t *testing.T) {
	sys := buildMeshSystem(t)
	for i := 0; i < 20; i++ {
		want := layout.Small.ClockGHz() / NoCClockGHz // mesh is small class
		if sys.NodeRate[i] != want {
			t.Fatalf("NoI rate %v, want %v", sys.NodeRate[i], want)
		}
	}
	for i := 20; i < 84; i++ {
		if sys.NodeRate[i] != 1.0 {
			t.Fatal("NoC routers run at base clock")
		}
	}
	if len(sys.ExtraLinkLatency) != 2*64 {
		t.Errorf("CDC latency entries = %d, want 128", len(sys.ExtraLinkLatency))
	}
}

func TestRoutingAvoidsCDCZigzag(t *testing.T) {
	sys := buildMeshSystem(t)
	for s := 0; s < 84; s++ {
		for d := 0; d < 84; d++ {
			if s == d {
				continue
			}
			p := sys.Routing.PathFor(s, d)
			transitions := 0
			for i := 0; i+1 < len(p); i++ {
				if isNoI(p[i]) != isNoI(p[i+1]) {
					transitions++
				}
			}
			if transitions > 2 {
				t.Fatalf("path (%d,%d) zigzags across CDC %d times: %v", s, d, transitions, p)
			}
		}
	}
}

func TestWorkloadPattern(t *testing.T) {
	sys := buildMeshSystem(t)
	b := Benchmarks()[0]
	w := sys.NewWorkload(b)
	rng := rand.New(rand.NewSource(1))
	coh, mem := 0, 0
	for i := 0; i < 4000; i++ {
		src := sys.CoreRouters[rng.Intn(64)]
		dst, flits, ok := w.Inject(src, rng)
		if !ok {
			continue
		}
		if dst < 20 {
			mem++
			if flits != 1 {
				t.Fatal("memory requests are control packets")
			}
		} else {
			coh++
		}
	}
	frac := float64(coh) / float64(coh+mem)
	if frac < b.CoherenceFrac-0.1 || frac > b.CoherenceFrac+0.1 {
		t.Errorf("coherence fraction %v far from %v", frac, b.CoherenceFrac)
	}
	// NoI routers do not inject.
	if _, _, ok := w.Inject(5, rng); ok {
		t.Error("NoI routers must not originate workload traffic")
	}
	// MC delivery generates a data reply.
	if dst, flits, ok := w.OnDeliver(30, sys.MCRouters[0], rng); !ok || dst != 30 || flits != 9 {
		t.Error("MC must reply with a 9-flit data packet")
	}
}

// TestWorkloadInjectContract is the regression test for the
// Inject-contract fix: an originating core must inject on EVERY
// opportunity (the old code randomly returned ok=false when the
// coherence draw picked the source itself, which dropped offered load
// and miscounted injecting nodes), and the static Originates answer
// must partition cores from MC/NoI routers exactly.
func TestWorkloadInjectContract(t *testing.T) {
	sys := buildMeshSystem(t)
	b := Benchmarks()[5] // mid-range coherence fraction
	w := sys.NewWorkload(b)
	isCore := map[int]bool{}
	for _, c := range sys.CoreRouters {
		isCore[c] = true
	}
	rng := rand.New(rand.NewSource(9))
	for src := 0; src < sys.Net.N(); src++ {
		if w.Originates(src) != isCore[src] {
			t.Errorf("Originates(%d) = %v, want %v", src, w.Originates(src), isCore[src])
		}
	}
	for _, src := range sys.CoreRouters {
		for i := 0; i < 500; i++ {
			dst, flits, ok := w.Inject(src, rng)
			if !ok {
				t.Fatalf("core %d dropped injection opportunity %d", src, i)
			}
			if dst == src || flits < 1 {
				t.Fatalf("core %d: Inject = (%d, %d)", src, dst, flits)
			}
		}
	}
}

func TestBenchmarksOrdered(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 12 {
		t.Fatalf("12 PARSEC benchmarks expected (vips excluded), got %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].L2MPKI < bs[i-1].L2MPKI {
			t.Fatal("benchmarks must be ordered by L2 miss intensity")
		}
	}
	for _, b := range bs {
		if b.InjectionRate() <= 0 || b.InjectionRate() > 0.05 {
			t.Errorf("%s: implausible injection rate %v", b.Name, b.InjectionRate())
		}
	}
}

func TestRunWorkloadProducesLatency(t *testing.T) {
	sys := buildMeshSystem(t)
	b := Benchmarks()[len(Benchmarks())-1] // canneal: heaviest
	res, err := sys.RunWorkload(b, DefaultExecModel(), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPacketNs <= 0 {
		t.Fatal("no packet latency measured")
	}
	if res.CPI <= b.IPCtoCPI() {
		t.Error("network latency must add to base CPI")
	}
	// Per-workload energy: the combined NoC+NoI run always collects
	// activity counters, so each PARSEC measurement carries measured
	// network power and per-flit energy.
	if res.NetPowerMW <= 0 || res.NetEnergyPerFlitPJ <= 0 {
		t.Errorf("workload energy not measured: power %v mW, %v pJ/flit",
			res.NetPowerMW, res.NetEnergyPerFlitPJ)
	}
}

func TestFullSystemSimulates(t *testing.T) {
	sys := buildMeshSystem(t)
	cfg := sys.SimConfig(sys.NewWorkload(Benchmarks()[5]), 0.005, 7)
	cfg.WarmupCycles = 800
	cfg.MeasureCycles = 2000
	cfg.DrainCycles = 5000
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatal("full system stalled")
	}
	if res.Measured == 0 {
		t.Fatal("nothing measured")
	}
}
