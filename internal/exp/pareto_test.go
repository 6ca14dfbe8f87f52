package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
)

// smokePareto is the smallest sweep that still exercises every stage:
// two energy weights on a 3x3 grid, tiny fixed synthesis budget, smoke
// cycle budgets, two measured rates.
func smokePareto(st *store.Store) ParetoConfig {
	return ParetoConfig{
		Base: synth.Config{
			Grid: layout.NewGrid(3, 3), Class: layout.Medium, Objective: synth.LatOp,
			Seed: 7, Iterations: 400, Restarts: 1,
		},
		EnergyWeights: []float64{0, 1.5},
		Rates:         []float64{0.02, 0.3},
		Fidelity:      sim.FidelitySmoke,
		Store:         st,
	}
}

func renderFrontier(t *testing.T, fr *Frontier) (csv, js []byte) {
	t.Helper()
	var cb, jb bytes.Buffer
	if err := FrontierCSV(&cb, fr); err != nil {
		t.Fatal(err)
	}
	if err := FrontierJSON(&jb, fr); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

func TestDominates(t *testing.T) {
	a := ParetoMetrics{LatencyNs: 3, SaturationPerNs: 0.4, EnergyPerFlitPJ: 2}
	better := ParetoMetrics{LatencyNs: 2.5, SaturationPerNs: 0.4, EnergyPerFlitPJ: 2}
	tradeoff := ParetoMetrics{LatencyNs: 2.5, SaturationPerNs: 0.3, EnergyPerFlitPJ: 2}
	if !better.Dominates(a) {
		t.Error("strictly-better point does not dominate")
	}
	if a.Dominates(better) {
		t.Error("worse point dominates")
	}
	if a.Dominates(a) {
		t.Error("a point dominates itself")
	}
	if tradeoff.Dominates(a) || a.Dominates(tradeoff) {
		t.Error("incomparable trade-off points dominate each other")
	}
}

// TestFilterDominatedProperties is the property test behind the
// frontier's correctness claim: over random point sets (drawn from a
// small discrete value pool so ties and duplicates are common), no
// survivor is dominated, every dropped point is dominated by — or a
// later duplicate of — a survivor, and the output is a deterministic
// function of the input.
func TestFilterDominatedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{1, 2, 3}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		ms := make([]ParetoMetrics, n)
		for i := range ms {
			ms[i] = ParetoMetrics{
				LatencyNs:       vals[rng.Intn(len(vals))],
				SaturationPerNs: vals[rng.Intn(len(vals))],
				EnergyPerFlitPJ: vals[rng.Intn(len(vals))],
			}
		}
		keep := FilterDominated(ms)
		kept := make(map[int]bool, len(keep))
		prev := -1
		for _, i := range keep {
			if i <= prev {
				t.Fatalf("trial %d: survivors not ascending: %v", trial, keep)
			}
			prev = i
			kept[i] = true
		}
		for _, i := range keep {
			for j := range ms {
				if j != i && ms[j].Dominates(ms[i]) {
					t.Fatalf("trial %d: survivor %d (%+v) dominated by %d (%+v)", trial, i, ms[i], j, ms[j])
				}
			}
		}
		for i := range ms {
			if kept[i] {
				continue
			}
			justified := false
			for _, j := range keep {
				if ms[j].Dominates(ms[i]) || (ms[j] == ms[i] && j < i) {
					justified = true
					break
				}
			}
			if !justified {
				t.Fatalf("trial %d: dropped %d (%+v) with no dominating or earlier-duplicate survivor of %v", trial, i, ms[i], keep)
			}
		}
		again := FilterDominated(ms)
		if len(again) != len(keep) {
			t.Fatalf("trial %d: filter nondeterministic", trial)
		}
		for k := range keep {
			if again[k] != keep[k] {
				t.Fatalf("trial %d: filter nondeterministic", trial)
			}
		}
	}
}

func TestFilterDominatedDuplicates(t *testing.T) {
	p := ParetoMetrics{LatencyNs: 1, SaturationPerNs: 1, EnergyPerFlitPJ: 1}
	keep := FilterDominated([]ParetoMetrics{p, p, p})
	if len(keep) != 1 || keep[0] != 0 {
		t.Fatalf("duplicate handling: keep = %v, want [0]", keep)
	}
	if keep := FilterDominated(nil); len(keep) != 0 {
		t.Fatalf("empty input: keep = %v", keep)
	}
}

// TestParetoFrontierDeterministic pins the artifact contract: the same
// sweep emits byte-identical CSV and JSON at GOMAXPROCS 1 and 8,
// across reruns, and from a warm store versus a cold one.
func TestParetoFrontierDeterministic(t *testing.T) {
	run := func(procs int, st *store.Store) (*Frontier, []byte, []byte) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		fr, err := ParetoSweep(smokePareto(st))
		if err != nil {
			t.Fatal(err)
		}
		csv, js := renderFrontier(t, fr)
		return fr, csv, js
	}
	fr1, csv1, js1 := run(1, nil)
	_, csv8, js8 := run(8, nil)
	if !bytes.Equal(csv1, csv8) {
		t.Errorf("frontier CSV differs between GOMAXPROCS 1 and 8:\n%s\n----\n%s", csv1, csv8)
	}
	if !bytes.Equal(js1, js8) {
		t.Error("frontier JSON differs between GOMAXPROCS 1 and 8")
	}
	if len(fr1.Points) == 0 || fr1.Swept != 2 {
		t.Fatalf("degenerate frontier: %d points of %d swept", len(fr1.Points), fr1.Swept)
	}
	for _, p := range fr1.Points {
		if p.LatencyNs <= 0 || p.AvgPowerMW <= 0 || p.EnergyPerFlitPJ <= 0 {
			t.Errorf("unmeasured frontier point: %+v", p)
		}
		if p.IdlePowerMW+p.ActivePowerMW > p.AvgPowerMW*1.0000001 {
			t.Errorf("power split exceeds total: %+v", p)
		}
	}
	if fr1.Energy.AggregatePowerMW <= 0 || fr1.Energy.EnergyPerFlitPJ <= 0 {
		t.Errorf("fleet energy not populated: %+v", fr1.Energy)
	}

	// Cold store: fills synthesis, cell and frontier caches.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, csvCold, jsCold := run(8, st)
	if cold.Stats.FrontierCached || cold.Stats.Synthesized == 0 {
		t.Fatalf("cold run did not synthesize: %+v", cold.Stats)
	}
	if !bytes.Equal(csv1, csvCold) || !bytes.Equal(js1, jsCold) {
		t.Error("store-backed frontier differs from storeless frontier")
	}
	// Warm store: the frontier itself answers, byte-identically.
	warm, csvWarm, jsWarm := run(1, st)
	if !warm.Stats.FrontierCached {
		t.Fatalf("warm run recomputed: %+v", warm.Stats)
	}
	if !bytes.Equal(csvCold, csvWarm) || !bytes.Equal(jsCold, jsWarm) {
		t.Error("warm frontier differs from the run that cached it")
	}
}

// TestParetoKeySensitivity checks the frontier key covers every sweep
// knob (a changed knob misses) while unchanged sub-results still hit
// (a widened weight grid synthesizes only the new point).
func TestParetoKeySensitivity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := smokePareto(st)
	fr, err := ParetoSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Stats.FrontierCached {
		t.Fatal("cold sweep reported a frontier hit")
	}

	mutations := map[string]func(*ParetoConfig){
		"energy weights": func(pc *ParetoConfig) { pc.EnergyWeights = []float64{0, 2} },
		"robust weights": func(pc *ParetoConfig) { pc.RobustWeights = []float64{0, 10} },
		"rates":          func(pc *ParetoConfig) { pc.Rates = []float64{0.02, 0.25} },
		"fidelity":       func(pc *ParetoConfig) { pc.Fidelity = sim.FidelityFast },
		"seed":           func(pc *ParetoConfig) { pc.Base.Seed = 8 },
		"iterations":     func(pc *ParetoConfig) { pc.Base.Iterations = 500 },
	}
	for name, mutate := range mutations {
		pc := smokePareto(st)
		mutate(&pc)
		got, err := ParetoSweep(pc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Stats.FrontierCached {
			t.Errorf("changed %s still hit the frontier cache", name)
		}
	}

	// Widening the energy grid reuses both cached syntheses and their
	// cells; only the new point does any work.
	wide := smokePareto(st)
	wide.EnergyWeights = []float64{0, 1.5, 3}
	got, err := ParetoSweep(wide)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Synthesized != 1 || got.Stats.SynthCached != 2 {
		t.Errorf("widened grid: synthesized %d, cached %d; want 1 new, 2 cached",
			got.Stats.Synthesized, got.Stats.SynthCached)
	}

	// The exact original config is a pure frontier hit.
	again, err := ParetoSweep(smokePareto(st))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.FrontierCached {
		t.Errorf("unchanged sweep missed the frontier cache: %+v", again.Stats)
	}
}

// TestParetoDamagedFrontierReassembles: a frontier blob that decodes but
// does not fit its sweep is a miss. The sweep re-assembles it from the
// cached points and cells, emits the fresh bytes and overwrites the
// blob, so the next run is a frontier hit again.
func TestParetoDamagedFrontierReassembles(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ParetoSweep(smokePareto(st))
	if err != nil {
		t.Fatal(err)
	}
	csvWant, jsWant := renderFrontier(t, fresh)
	other := smokePareto(st)
	other.EnergyWeights = []float64{0, 2}
	otherFr, err := ParetoSweep(other)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := smokePareto(st).normalized()
	if err != nil {
		t.Fatal(err)
	}
	key, ok := pc.cacheKey()
	if !ok {
		t.Fatal("smoke sweep has no frontier key")
	}

	for _, tc := range []struct {
		name  string
		value any
	}{
		{"null", json.RawMessage("null")},
		{"empty", json.RawMessage("{}")},
		{"other-sweep", otherFr},
	} {
		if err := st.Put(key, tc.value); err != nil {
			t.Fatal(err)
		}
		got, err := ParetoSweep(smokePareto(st))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s := got.Stats; s.FrontierCached || s.Synthesized != 0 || s.Cells == 0 || s.CellsCached != s.Cells {
			t.Errorf("%s: stats %+v, want a re-assembly from cached points and cells", tc.name, s)
		}
		csvGot, jsGot := renderFrontier(t, got)
		if !bytes.Equal(csvWant, csvGot) || !bytes.Equal(jsWant, jsGot) {
			t.Errorf("%s: re-assembled frontier differs from the fresh one", tc.name)
		}
		if again, err := ParetoSweep(smokePareto(st)); err != nil || !again.Stats.FrontierCached {
			t.Errorf("%s: re-assembled frontier was not overwritten: err %v", tc.name, err)
		}
	}
}

// TestParetoShardedAssembly: two shards persist their halves and return
// ParetoIncompleteError; an unsharded pass over the shared store then
// assembles a frontier byte-identical to a storeless run, recomputing
// nothing.
func TestParetoShardedAssembly(t *testing.T) {
	ref, err := ParetoSweep(smokePareto(nil))
	if err != nil {
		t.Fatal(err)
	}
	csvWant, jsWant := renderFrontier(t, ref)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	totalOwned := 0
	for i := 0; i < 2; i++ {
		pc := smokePareto(st)
		pc.Shard = sim.Shard{Index: i, Count: 2}
		_, err := ParetoSweep(pc)
		var inc *ParetoIncompleteError
		if !errors.As(err, &inc) {
			t.Fatalf("shard %d: got err %v, want ParetoIncompleteError", i, err)
		}
		if inc.Points != 2 {
			t.Fatalf("shard %d: points = %d, want 2", i, inc.Points)
		}
		totalOwned += inc.Owned
		if !strings.Contains(inc.Error(), "pending") {
			t.Errorf("shard error lacks pending count: %v", inc)
		}
	}
	if totalOwned != 2 {
		t.Fatalf("shards owned %d points in total, want 2", totalOwned)
	}
	merged, err := ParetoSweep(smokePareto(st))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stats.Synthesized != 0 || merged.Stats.CellsComputed != 0 {
		t.Errorf("assembly recomputed shard work: %+v", merged.Stats)
	}
	csvGot, jsGot := renderFrontier(t, merged)
	if !bytes.Equal(csvWant, csvGot) || !bytes.Equal(jsWant, jsGot) {
		t.Error("assembled frontier differs from storeless run")
	}
}

func TestParetoSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pc := smokePareto(nil)
	pc.Ctx = ctx
	if _, err := ParetoSweep(pc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
}

func TestParetoConfigValidation(t *testing.T) {
	cases := map[string]func(*ParetoConfig){
		"base energy weight": func(pc *ParetoConfig) { pc.Base.EnergyWeight = 1 },
		"base robust weight": func(pc *ParetoConfig) { pc.Base.RobustWeight = 1 },
		"duplicate weight":   func(pc *ParetoConfig) { pc.EnergyWeights = []float64{1, 1} },
		"negative weight":    func(pc *ParetoConfig) { pc.EnergyWeights = []float64{-1} },
		"zero rate":          func(pc *ParetoConfig) { pc.Rates = []float64{0, 0.1} },
		"unsorted rates":     func(pc *ParetoConfig) { pc.Rates = []float64{0.2, 0.1} },
		"bad fidelity":       func(pc *ParetoConfig) { pc.Fidelity = "nosuch" },
		"shard sans store":   func(pc *ParetoConfig) { pc.Store = nil; pc.Shard = sim.Shard{Index: 0, Count: 2} },
		"shard range":        func(pc *ParetoConfig) { pc.Shard = sim.Shard{Index: 2, Count: 2} },
	}
	for name, mutate := range cases {
		pc := smokePareto(nil)
		if name == "shard range" || name == "shard sans store" {
			// give the shard cases a store where they expect one
			if name == "shard range" {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				pc.Store = st
			}
		}
		mutate(&pc)
		if _, err := ParetoSweep(pc); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
		if _, err := pc.Points(); err == nil {
			t.Errorf("%s: Points accepted invalid config", name)
		}
	}
	if n, err := smokePareto(nil).Points(); err != nil || n != 2 {
		t.Fatalf("Points() = %d, %v; want 2, nil", n, err)
	}
	if n, err := (ParetoConfig{Base: smokePareto(nil).Base}).Points(); err != nil || n != len(DefaultEnergyWeights()) {
		t.Fatalf("defaulted Points() = %d, %v; want %d", n, err, len(DefaultEnergyWeights()))
	}
}
