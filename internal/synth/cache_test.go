package synth

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"netsmith/internal/layout"
	"netsmith/internal/store"
	"netsmith/internal/topo"
)

func smallCfg() Config {
	return Config{
		Grid: layout.Grid4x5, Class: layout.Medium, Objective: LatOp,
		Seed: 5, Iterations: 1500, Restarts: 1,
	}
}

// TestCachedGenerateRoundTrip: the cached result must carry the exact
// topology and metrics of the run that populated it.
func TestCachedGenerateRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh, hit, err := CachedGenerate(st, smallCfg())
	if err != nil || hit {
		t.Fatalf("cold generate: hit=%v err=%v", hit, err)
	}
	cached, hit, err := CachedGenerate(st, smallCfg())
	if err != nil || !hit {
		t.Fatalf("warm generate: hit=%v err=%v", hit, err)
	}
	if got, want := cached.Topology.CanonicalLinkList(), fresh.Topology.CanonicalLinkList(); got != want {
		t.Errorf("cached topology differs:\n%s\nvs\n%s", got, want)
	}
	if cached.Topology.Name != fresh.Topology.Name {
		t.Errorf("cached name %q != %q", cached.Topology.Name, fresh.Topology.Name)
	}
	if cached.Objective != fresh.Objective || cached.Bound != fresh.Bound ||
		cached.Gap != fresh.Gap || cached.Optimal != fresh.Optimal ||
		cached.EnergyProxy != fresh.EnergyProxy {
		t.Errorf("cached metrics differ: %+v vs %+v", cached, fresh)
	}
	if len(cached.Trace) != 0 {
		t.Error("cached result invented a solver trace")
	}
	// The cached topology must survive the full downstream pipeline
	// (metrics recomputed from the deserialized adjacency).
	if cached.Topology.Diameter() != fresh.Topology.Diameter() ||
		cached.Topology.AverageHops() != fresh.Topology.AverageHops() {
		t.Error("cached topology metrics diverge from fresh")
	}
}

// TestCachedGenerateKeySensitivity: different configs may not collide.
func TestCachedGenerateKeySensitivity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := CachedGenerate(st, smallCfg()); err != nil || hit {
		t.Fatalf("populate: hit=%v err=%v", hit, err)
	}
	cfg := smallCfg()
	cfg.Seed = 6
	if _, hit, err := CachedGenerate(st, cfg); err != nil || hit {
		t.Fatalf("different seed hit the cache: hit=%v err=%v", hit, err)
	}
	cfg = smallCfg()
	cfg.Objective = SCOp
	if _, hit, err := CachedGenerate(st, cfg); err != nil || hit {
		t.Fatalf("different objective hit the cache: hit=%v err=%v", hit, err)
	}
}

// Population-mode keys: each population knob (and the seed) must miss
// against the others' entries, an unrelated knob (Progress) must still
// hit, and a classic restart config must never collide with a
// population one.
func TestCachedGeneratePopulationKeySensitivity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	popCfg := func() Config {
		cfg := smallCfg()
		cfg.Population = 2
		cfg.Generations = 1
		return cfg
	}
	if _, hit, err := CachedGenerate(st, popCfg()); err != nil || hit {
		t.Fatalf("populate: hit=%v err=%v", hit, err)
	}
	if _, hit, err := CachedGenerate(st, popCfg()); err != nil || !hit {
		t.Fatalf("identical population config missed: hit=%v err=%v", hit, err)
	}
	for name, mutate := range map[string]func(*Config){
		"population":  func(c *Config) { c.Population = 3 },
		"generations": func(c *Config) { c.Generations = 2 },
		"seed":        func(c *Config) { c.Seed++ },
		"classic":     func(c *Config) { c.Population = 0; c.Generations = 0 },
	} {
		cfg := popCfg()
		mutate(&cfg)
		if _, hit, err := CachedGenerate(st, cfg); err != nil || hit {
			t.Fatalf("%s change hit the population entry: hit=%v err=%v", name, hit, err)
		}
	}
	cfg := popCfg()
	cfg.Progress = func(ProgressPoint) {}
	if _, hit, err := CachedGenerate(st, cfg); err != nil || !hit {
		t.Fatalf("unrelated knob (Progress) missed: hit=%v err=%v", hit, err)
	}
}

// TestCorruptBlobIsMiss: a stored result whose topology is missing or
// is not on the config's grid and class reads as absent, and so does
// another seed's whole blob copied onto the config's path.
// CachedGenerate recomputes the config's own topology and overwrites
// the blob.
func TestCorruptBlobIsMiss(t *testing.T) {
	cfg := smallCfg()
	key, err := cfg.cacheKey()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := func(value string) func(*store.Store) error {
		return func(st *store.Store) error { return st.Put(key, json.RawMessage(value)) }
	}
	for name, damage := range map[string]func(*store.Store) error{
		"null topology": put(`{"topology":null}`),
		"no topology":   put(`{"objective":1}`),
		"other grid":    put(`{"topology":{"name":"x","rows":3,"cols":3,"class":"medium","links":[[0,1]]}}`),
		"other class":   put(`{"topology":{"name":"x","rows":4,"cols":5,"class":"large","links":[[0,1]]}}`),
		// Its topology is on the config's grid and class, so only the
		// key the blob records tells it apart.
		"other seed's blob": func(st *store.Store) error {
			other := cfg
			other.Seed--
			if _, _, err := CachedGenerate(st, other); err != nil {
				return err
			}
			otherKey, err := other.cacheKey()
			if err != nil {
				return err
			}
			blob, err := os.ReadFile(blobPath(t, st, otherKey))
			if err != nil {
				return err
			}
			path := blobPath(t, st, key)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			return os.WriteFile(path, blob, 0o644)
		},
	} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := damage(st); err != nil {
			t.Fatal(err)
		}
		if _, ok := Probe(st, cfg); ok {
			t.Errorf("%s: Probe reported the blob present", name)
		}
		res, hit, err := CachedGenerate(st, cfg)
		if err != nil || hit || res.Topology == nil {
			t.Fatalf("%s: CachedGenerate hit=%v err=%v", name, hit, err)
		}
		if res.Topology.CanonicalLinkList() != fresh.Topology.CanonicalLinkList() {
			t.Errorf("%s: the recomputed topology differs from a fresh run's", name)
		}
		if again, ok := Probe(st, cfg); !ok || again.Topology.CanonicalLinkList() != res.Topology.CanonicalLinkList() {
			t.Errorf("%s: the recomputed result did not overwrite the blob", name)
		}
	}
}

// blobPath is the file the store keeps key's blob in.
func blobPath(t *testing.T, st *store.Store, key store.Key) string {
	t.Helper()
	hash, err := key.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(st.Dir(), "objects", hash[:2], hash+".json")
}

// FuzzSynthCacheBlob writes arbitrary bytes as the stored object of the
// matrix front ends' NS config and reads it through Probe. The blob may
// miss but must never panic, and a hit must carry a topology on the
// config's grid and class. exp's FuzzStoreBlob, which CI fuzzes, holds
// the same seeds and check next to the other store key kinds.
func FuzzSynthCacheBlob(f *testing.F) {
	cfg := MatrixNSConfig(layout.Grid4x5, layout.Medium, 0, 0, 11, 20000, 0, 0)
	key, err := cfg.cacheKey()
	if err != nil {
		f.Fatal(err)
	}
	hash, err := key.Hash()
	if err != nil {
		f.Fatal(err)
	}
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "objects", hash[:2], hash+".json")
	tp := topo.New("seed", layout.Grid4x5, layout.Medium)
	tp.AddLink(0, 1)
	tp.AddLink(1, 0)
	if err := st.Put(key, cachedResult{Topology: tp, Objective: 1.5}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"rows":4`), []byte(`"rows":3`), 1))
	f.Add(bytes.Replace(valid, []byte(`"class":"medium"`), []byte(`"class":"large"`), 1))
	f.Add([]byte(`{"key":{"kind":"synth","schema":2},"value":{"topology":null}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok := Probe(st, cfg)
		if !ok {
			return
		}
		if res == nil || res.Topology == nil {
			t.Fatal("hit without a topology")
		}
		if g := res.Topology.Grid; g.Rows != 4 || g.Cols != 5 || res.Topology.Class != layout.Medium {
			t.Fatalf("hit on a %dx%d %s topology", g.Rows, g.Cols, res.Topology.Class)
		}
	})
}
