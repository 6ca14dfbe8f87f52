package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/store"
	"netsmith/internal/traffic"
)

// storeMatrix builds a small store-friendly matrix config: 3x3 mesh,
// two patterns (one stateful), two rates, energy on so cached results
// carry full EnergyReports.
func storeMatrix(t *testing.T) MatrixConfig {
	t.Helper()
	g := layout.NewGrid(3, 3)
	st, err := Prepare(expert.Mesh(g), UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := traffic.GridEnv(g)
	reg := traffic.Default()
	return MatrixConfig{
		Setups: []*Setup{st},
		Patterns: []PatternFactory{
			RegistryFactory(reg, "uniform", env, nil),
			RegistryFactory(reg, "bursty", env, traffic.Params{"ponoff": "0.1", "poffon": "0.1"}),
		},
		Rates: []float64{0.02, 0.10},
		Base: Config{
			WarmupCycles: 200, MeasureCycles: 500, DrainCycles: 1000,
			CollectEnergy: true,
		},
		Seed: 7,
	}
}

// TestMatrixStoreRoundTrip pins the core cache contract: a warm-store
// run returns results deeply identical to the fresh run that populated
// it, with every cell a hit and zero simulation.
func TestMatrixStoreRoundTrip(t *testing.T) {
	mc := storeMatrix(t)
	fresh, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc.Store = st
	cold, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(mc.Setups) * len(mc.Patterns) * len(mc.Rates)
	if cold.Stats.Computed != cells || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold run stats = %+v, want %d computed, 0 hits", cold.Stats, cells)
	}
	warm, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Computed != 0 || warm.Stats.CacheHits != cells {
		t.Fatalf("warm run stats = %+v, want 0 computed, %d hits", warm.Stats, cells)
	}
	// Stats intentionally differ between runs; everything emitted must
	// not.
	cold.Stats, warm.Stats, fresh.Stats = MatrixStats{}, MatrixStats{}, MatrixStats{}
	if !reflect.DeepEqual(fresh, cold) {
		t.Error("store-backed cold run differs from storeless run")
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Error("cache-served run differs from fresh run")
	}
}

// TestMatrixShardMerge pins the sharded contract: each shard computes
// only its owned cells, reports IncompleteError while cells are
// pending, and the final shard (or a resumed unsharded run) assembles
// the exact unsharded result.
func TestMatrixShardMerge(t *testing.T) {
	mc := storeMatrix(t)
	unsharded, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(mc.Setups) * len(mc.Patterns) * len(mc.Rates)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc.Store = st
	mc.Shard = Shard{Index: 0, Count: 2}
	_, err = RunMatrix(mc)
	var inc *IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("first shard: got err %v, want IncompleteError", err)
	}
	if inc.Computed == 0 || inc.Missing == 0 || inc.Computed+inc.Missing != cells {
		t.Fatalf("first shard accounting: %+v (cells %d)", inc, cells)
	}

	mc.Shard = Shard{Index: 1, Count: 2}
	merged, err := RunMatrix(mc)
	if err != nil {
		t.Fatalf("second shard should assemble the full matrix: %v", err)
	}
	if merged.Stats.Computed != inc.Missing || merged.Stats.CacheHits != inc.Computed {
		t.Fatalf("second shard stats = %+v, want %d computed + %d cached", merged.Stats, inc.Missing, inc.Computed)
	}
	merged.Stats = MatrixStats{}
	unsharded.Stats = MatrixStats{}
	if !reflect.DeepEqual(unsharded, merged) {
		t.Error("2-shard merged matrix differs from unsharded run")
	}
}

// TestMatrixResume emulates a killed run: a shard pass leaves a partial
// store behind, and an unsharded re-run over that store must recompute
// only the missing cells and reproduce the uninterrupted result.
func TestMatrixResume(t *testing.T) {
	mc := storeMatrix(t)
	uninterrupted, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(mc.Setups) * len(mc.Patterns) * len(mc.Rates)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// "Interrupted" run: only a third of the cells made it to the store.
	mc.Store = st
	mc.Shard = Shard{Index: 0, Count: 3}
	var inc *IncompleteError
	if _, err := RunMatrix(mc); !errors.As(err, &inc) {
		t.Fatalf("partial shard: got err %v, want IncompleteError", err)
	}
	// Resume: unsharded run over the partial store.
	mc.Shard = Shard{}
	resumed, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.CacheHits == 0 || resumed.Stats.Computed == 0 ||
		resumed.Stats.CacheHits+resumed.Stats.Computed != cells {
		t.Fatalf("resume stats = %+v, want a cached/computed split covering %d cells", resumed.Stats, cells)
	}
	resumed.Stats = MatrixStats{}
	uninterrupted.Stats = MatrixStats{}
	if !reflect.DeepEqual(uninterrupted, resumed) {
		t.Error("resumed matrix differs from uninterrupted run")
	}
}

// storedCellKey is the store key RunMatrix files cell (pi, ri) of a
// one-topology, fault-free matrix under.
func storedCellKey(t *testing.T, mc MatrixConfig, pi, ri int) store.Key {
	t.Helper()
	fp, err := mc.Setups[0].Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := mc.Base
	cfg.Topo = mc.Setups[0].Topo
	cfg.InjectionRate = mc.Rates[ri]
	cfg.Seed = mc.Seed + int64(pi*len(mc.Rates)+ri)*7919
	return cellKey(fp, mc.Patterns[pi].Key, "", cfg.normalized())
}

// copyBlob copies the whole stored blob of key from onto key to's path,
// as a user copying store files around would.
func copyBlob(t *testing.T, st *store.Store, from, to store.Key) error {
	t.Helper()
	path := func(k store.Key) string {
		h, err := k.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Join(st.Dir(), "objects", h[:2], h+".json")
	}
	blob, err := os.ReadFile(path(from))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path(to)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path(to), blob, 0o644)
}

// TestMatrixDamagedCellRecomputes: a cell blob that decodes but does not
// fit its cell, or that was written for another cell, is a miss. The
// warm run recomputes exactly that cell, overwrites it and emits the
// fresh run's bytes; a shard that does not own the cell counts it as
// missing instead of serving it.
func TestMatrixDamagedCellRecomputes(t *testing.T) {
	mc := storeMatrix(t)
	fresh, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(mc.Setups) * len(mc.Patterns) * len(mc.Rates)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc.Store = st
	if _, err := RunMatrix(mc); err != nil {
		t.Fatal(err)
	}
	// uniform@0.1 is cell 1 and bursty@0.1 cell 3; shard 0/2 owns
	// neither.
	key, lowKey, burstyKey := storedCellKey(t, mc, 0, 1), storedCellKey(t, mc, 0, 0), storedCellKey(t, mc, 1, 1)
	var intact, low Result
	for _, c := range []struct {
		k   store.Key
		out *Result
	}{{key, &intact}, {lowKey, &low}} {
		if hit, err := st.Get(c.k, c.out); err != nil || !hit {
			t.Fatalf("populated cell missing from the store: hit=%v err=%v", hit, err)
		}
	}
	negative := intact
	negative.AvgLatencyNs = -1
	noEnergy := intact
	noEnergy.Energy = nil
	negativeEnergy := intact
	energy := *intact.Energy
	energy.DynamicPJ = -1
	negativeEnergy.Energy = &energy

	put := func(v any) func() error { return func() error { return st.Put(key, v) } }
	for _, tc := range []struct {
		name   string
		damage func() error
	}{
		{"null", put(json.RawMessage("null"))},
		{"empty", put(json.RawMessage("{}"))},
		{"other-rate", put(low)},
		{"negative-latency", put(negative)},
		{"no-energy", put(noEnergy)},
		{"negative-energy", put(negativeEnergy)},
		// uniform@0.1's whole blob on bursty@0.1's path: its value fits
		// that cell's rate and energy setting, so only the key it
		// records tells it apart.
		{"copied-blob", func() error { return copyBlob(t, st, key, burstyKey) }},
	} {
		if err := tc.damage(); err != nil {
			t.Fatal(err)
		}
		shard := mc
		shard.Shard = Shard{Index: 0, Count: 2}
		var inc *IncompleteError
		if _, err := RunMatrix(shard); !errors.As(err, &inc) || inc.Missing != 1 {
			t.Fatalf("%s: shard 0/2 over the damaged cell: err %v, want 1 missing", tc.name, err)
		}
		got, err := RunMatrix(mc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Stats.Computed != 1 || got.Stats.CacheHits != cells-1 {
			t.Errorf("%s: stats %+v, want 1 computed, %d cached", tc.name, got.Stats, cells-1)
		}
		if b, err := json.Marshal(got); err != nil || !bytes.Equal(b, want) {
			t.Errorf("%s: warm run differs from the fresh run (err %v)", tc.name, err)
		}
		if again, err := RunMatrix(mc); err != nil || again.Stats.Computed != 0 {
			t.Errorf("%s: recomputed cell was not overwritten: err %v", tc.name, err)
		}
	}
}

// TestMatrixStoreKeySensitivity: any input that changes results must
// miss the cache — matrix seed, fidelity knobs, pattern parameters and
// the routing baked into the Setup all participate in the key.
func TestMatrixStoreKeySensitivity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc := storeMatrix(t)
	mc.Store = st
	cells := len(mc.Setups) * len(mc.Patterns) * len(mc.Rates)
	if res, err := RunMatrix(mc); err != nil || res.Stats.Computed != cells {
		t.Fatalf("populate: err=%v stats=%+v", err, res.Stats)
	}

	mutate := []struct {
		name     string
		wantHits int // addressing is per cell: unchanged cells may hit
		mod      func(*MatrixConfig)
	}{
		{"seed", 0, func(m *MatrixConfig) { m.Seed = 8 }},
		{"measure-cycles", 0, func(m *MatrixConfig) { m.Base.MeasureCycles = 600 }},
		{"energy-off", 0, func(m *MatrixConfig) { m.Base.CollectEnergy = false }},
		// Re-parameterizing bursty invalidates only its cells; the two
		// uniform cells legitimately still hit.
		{"pattern-params", 2, func(m *MatrixConfig) {
			g := layout.NewGrid(3, 3)
			m.Patterns[1] = RegistryFactory(traffic.Default(), "bursty",
				traffic.GridEnv(g), traffic.Params{"ponoff": "0.2", "poffon": "0.1"})
		}},
		{"routing-seed", 0, func(m *MatrixConfig) {
			g := layout.NewGrid(3, 3)
			st2, err := Prepare(expert.Mesh(g), UseNDBT, 99)
			if err != nil {
				t.Fatal(err)
			}
			m.Setups = []*Setup{st2}
		}},
	}
	for _, mut := range mutate {
		m2 := storeMatrix(t)
		m2.Store = st
		mut.mod(&m2)
		res, err := RunMatrix(m2)
		if err != nil {
			t.Fatalf("%s: %v", mut.name, err)
		}
		if res.Stats.CacheHits != mut.wantHits {
			t.Errorf("%s: cache hits = %d, want %d (%+v)", mut.name, res.Stats.CacheHits, mut.wantHits, res.Stats)
		}
	}

	// And the original config still hits all cells afterwards.
	res, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != cells {
		t.Errorf("original config no longer fully cached: %+v", res.Stats)
	}
}

// TestMatrixStoreConcurrent exercises the store under the full worker
// pool at high parallelism (run with -race in CI): concurrent cold
// misses racing to Put, then concurrent warm hits.
func TestMatrixStoreConcurrent(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc := storeMatrix(t)
	mc.Store = st
	cold, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunMatrix(mc)
	if err != nil {
		t.Fatal(err)
	}
	cold.Stats, warm.Stats = MatrixStats{}, MatrixStats{}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("concurrent cached run differs from populating run")
	}
}

func TestShardValidation(t *testing.T) {
	mc := storeMatrix(t)
	mc.Shard = Shard{Index: 0, Count: 2}
	if _, err := RunMatrix(mc); err == nil {
		t.Error("sharded run without a store accepted")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc.Store = st
	mc.Shard = Shard{Index: 2, Count: 2}
	if _, err := RunMatrix(mc); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

// TestParseShard's rows, which also seed FuzzParseShard.
var (
	parseShardGood = map[string]Shard{
		"":    {},
		"0/2": {Index: 0, Count: 2},
		"3/4": {Index: 3, Count: 4},
		"0/1": {Index: 0, Count: 1},
	}
	parseShardBad = []string{"2/2", "-1/2", "1", "a/b", "1/0"}
)

func TestParseShard(t *testing.T) {
	for in, want := range parseShardGood {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range parseShardBad {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
}

// FuzzParseShard: no input panics, and an accepted shard is unsharded
// for "" and has 0 <= Index < Count otherwise, passes RunMatrix's own
// check, and parses back from its printed form to a shard that prints
// the same and owns the same cells (a one-way "0/1" prints as "",
// which is unsharded too).
func FuzzParseShard(f *testing.F) {
	for in := range parseShardGood {
		f.Add(in)
	}
	for _, in := range parseShardBad {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseShard(in)
		if err != nil {
			return
		}
		inBounds := s.Index >= 0 && s.Index < s.Count
		if in == "" {
			inBounds = s == Shard{}
		}
		if err := s.validate(); err != nil || !inBounds {
			t.Fatalf("ParseShard(%q) accepted %+v: %v", in, s, err)
		}
		back, err := ParseShard(s.String())
		if err != nil || back.String() != s.String() || (s.enabled() && back != s) {
			t.Fatalf("ParseShard(%q) = %+v, but its form %q parses to %+v, %v", in, s, s.String(), back, err)
		}
	})
}

// TestSetupFingerprint: equal pipelines agree, any ingredient change
// disagrees.
func TestSetupFingerprint(t *testing.T) {
	g := layout.NewGrid(3, 3)
	a, err := Prepare(expert.Mesh(g), UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(expert.Mesh(g), UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fb, _ := b.Fingerprint(); fb != fa {
		t.Error("identical Prepare pipelines fingerprint differently")
	}
	// Different routing seed (NDBT tie-breaks by seed) or topology must
	// change the fingerprint.
	c, err := Prepare(expert.Mesh(g), UseMCLB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fc, _ := c.Fingerprint(); fc == fa {
		t.Error("different routing algorithm, same fingerprint")
	}
	d, err := Prepare(expert.FoldedTorus(g), UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fd, _ := d.Fingerprint(); fd == fa {
		t.Error("different topology, same fingerprint")
	}
}
