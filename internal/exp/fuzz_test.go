package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
)

// blobReader reads blob, written at path (the file of one requested
// store key, in a store of its own), through the product reader of that
// key's kind, checks a hit and reports whether it was one.
type blobReader struct {
	path string
	read func(t testing.TB, blob []byte) (hit bool)
}

// storedBlob returns the path and bytes of the first blob of kind in st
// (in hash order).
func storedBlob(t testing.TB, st *store.Store, kind string) (string, []byte) {
	t.Helper()
	hashes, err := st.Hashes()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hashes {
		path := filepath.Join(st.Dir(), "objects", h[:2], h+".json")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Key struct {
				Kind string `json:"kind"`
			} `json:"key"`
		}
		if json.Unmarshal(b, &e) == nil && e.Key.Kind == kind {
			return path, b
		}
	}
	t.Fatalf("no %s blob in the store", kind)
	return "", nil
}

// blobIn copies the blob at path into a new store, so the reader that
// owns the store finds nothing else, and returns the store and the
// copy's path.
func blobIn(t testing.TB, path string, blob []byte) (*store.Store, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	own := filepath.Join(st.Dir(), "objects", filepath.Base(filepath.Dir(path)), filepath.Base(path))
	if err := os.MkdirAll(filepath.Dir(own), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(own, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return st, own
}

// cellReader reads a matrix cell through a sharded RunMatrix that does
// not own it, so a miss reports the cell missing instead of simulating
// it. A hit must serve a point with no negative field.
func cellReader(t testing.TB) (blobReader, []byte) {
	g := layout.NewGrid(3, 3)
	setup, err := sim.Prepare(expert.Mesh(g), sim.UseNDBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc := sim.MatrixConfig{
		Setups:   []*sim.Setup{setup},
		Patterns: []sim.PatternFactory{sim.RegistryFactory(traffic.Default(), "uniform", traffic.GridEnv(g), nil)},
		Rates:    []float64{0.1},
		Seed:     7,
	}
	if err := sim.ApplyFidelity(&mc.Base, sim.FidelitySmoke); err != nil {
		t.Fatal(err)
	}
	mc.Base.CollectEnergy = true
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc.Store = st
	if _, err := sim.RunMatrix(mc); err != nil {
		t.Fatal(err)
	}
	path, seed := storedBlob(t, st, "matrix-cell")
	mc.Store, path = blobIn(t, path, seed)
	mc.Shard = sim.Shard{Index: 1, Count: 2}
	return blobReader{path, func(t testing.TB, _ []byte) bool {
		res, err := sim.RunMatrix(mc)
		var inc *sim.IncompleteError
		if errors.As(err, &inc) {
			return false
		}
		if err != nil {
			t.Fatal(err)
		}
		p := res.Curves[0].Points[0]
		for _, v := range []float64{p.AvgLatencyNs, p.AcceptedPerNs, p.DeliveredFraction,
			p.LatencyInflation, p.AvgPowerMW, p.EnergyPerFlitPJ, float64(p.DroppedFlits)} {
			if v < 0 {
				t.Fatalf("hit serves a negative field: %+v", p)
			}
		}
		return true
	}}, seed
}

// synthReader reads the matrix front ends' ns synthesis result through
// synth.Probe, which never searches. A hit must carry a topology on the
// config's grid and class. The seed blob is a hand-made two-link
// topology: Probe checks identity, not feasibility.
func synthReader(t testing.TB) (blobReader, []byte) {
	cfg := synth.MatrixNSConfig(layout.Grid4x5, layout.Medium, 0, 0, 11, 20000, 0, 0)
	payload, ok := cfg.CachePayload()
	if !ok {
		t.Fatal("no cache payload")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.New("seed", layout.Grid4x5, layout.Medium)
	tp.AddLink(0, 1)
	tp.AddLink(1, 0)
	if err := st.Put(store.NewKey("synth", payload), map[string]any{"topology": tp, "objective": 1.5}); err != nil {
		t.Fatal(err)
	}
	path, seed := storedBlob(t, st, "synth")
	return blobReader{path, func(t testing.TB, _ []byte) bool {
		res, ok := synth.Probe(st, cfg)
		if !ok {
			return false
		}
		if res == nil || res.Topology == nil {
			t.Fatal("hit without a topology")
		}
		if g := res.Topology.Grid; g.Rows != 4 || g.Cols != 5 || res.Topology.Class != layout.Medium {
			t.Fatalf("hit on a %dx%d %s topology", g.Rows, g.Cols, res.Topology.Class)
		}
		return true
	}}, seed
}

// memberReader reads a population portfolio member through a tiny
// population run, which recomputes and rewrites a member that misses.
// So the blob is a hit exactly when the run leaves it in place, and a
// hit must list a member loadMember may accept: links in canonical
// order, within the class and the radix, strongly connected. The run
// itself must succeed with a feasible topology either way.
func memberReader(t testing.TB) (blobReader, []byte) {
	g := layout.NewGrid(3, 3)
	cfg := synth.Config{Grid: g, Class: layout.Medium, Objective: synth.LatOp, Seed: 3, Iterations: 40, Population: 2, Generations: 1}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if _, err := synth.Generate(cfg); err != nil {
		t.Fatal(err)
	}
	path, seed := storedBlob(t, st, "synth-member")
	cfg.Store, path = blobIn(t, path, seed)
	feasible := func(t testing.TB, tp *topo.Topology) {
		if !tp.RespectsRadix(4) || !tp.RespectsLinkLengths() || !tp.IsConnected() {
			t.Fatalf("infeasible topology %s", tp.CanonicalLinkList())
		}
	}
	return blobReader{path, func(t testing.TB, blob []byte) bool {
		res, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feasible(t, res.Topology)
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, blob) {
			return false // recomputed and rewritten
		}
		var e struct {
			Value struct {
				Links [][2]int `json:"links"`
			} `json:"value"`
		}
		if err := json.Unmarshal(blob, &e); err != nil {
			t.Fatalf("hit on an undecodable blob: %v", err)
		}
		member := topo.New("member", g, layout.Medium)
		for i, l := range e.Value.Links {
			if i > 0 && (l[0] < e.Value.Links[i-1][0] || l[0] == e.Value.Links[i-1][0] && l[1] <= e.Value.Links[i-1][1]) {
				t.Fatalf("hit lists links out of canonical order: %v", e.Value.Links)
			}
			if l[0] < 0 || l[0] >= g.N() || l[1] < 0 || l[1] >= g.N() || l[0] == l[1] {
				t.Fatalf("hit lists link %v", l)
			}
			member.AddLink(l[0], l[1])
		}
		feasible(t, member)
		return true
	}}, seed
}

// frontierReader reads a pareto frontier through a sharded ParetoSweep
// that owns no point, so a miss reports the sweep incomplete instead of
// synthesizing or simulating. A hit must fit the sweep.
func frontierReader(t testing.TB) (blobReader, []byte) {
	pc := smokePareto(nil)
	pc.EnergyWeights = []float64{0}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pc.Store = st
	if _, err := ParetoSweep(pc); err != nil {
		t.Fatal(err)
	}
	path, seed := storedBlob(t, st, "pareto")
	pc.Store, path = blobIn(t, path, seed)
	pc.Shard = sim.Shard{Index: 1, Count: 2}
	norm, err := pc.normalized()
	if err != nil {
		t.Fatal(err)
	}
	return blobReader{path, func(t testing.TB, _ []byte) bool {
		fr, err := ParetoSweep(pc)
		var inc *ParetoIncompleteError
		if errors.As(err, &inc) {
			return false
		}
		if err != nil {
			t.Fatal(err)
		}
		if !fr.fits(norm) {
			t.Fatalf("hit on a frontier that does not fit the sweep: %+v", fr)
		}
		return true
	}}, seed
}

// FuzzStoreBlob writes arbitrary bytes at the path of a requested key of
// every store key kind and reads them through that kind's reader: a
// matrix cell, a synthesis result, a population member and a pareto
// frontier. No reader may panic, and a hit must pass its kind's check.
// The corpus holds a blob a real run (a hand-made one for synth) wrote
// for each kind, which hits its own reader and is another kind's blob
// on the wrong path for the rest, plus damaged synthesis blobs.
func FuzzStoreBlob(f *testing.F) {
	var readers []blobReader
	var seeds [][]byte
	for _, newReader := range []func(testing.TB) (blobReader, []byte){cellReader, synthReader, memberReader, frontierReader} {
		r, seed := newReader(f)
		if !r.read(f, seed) {
			f.Fatalf("a blob missed at its own path %s", r.path)
		}
		readers = append(readers, r)
		seeds = append(seeds, seed)
		f.Add(seed)
	}
	// Damage the synthesis value, not the key the blob records.
	synthSeed := seeds[1]
	value := func(old, new string) []byte {
		i := bytes.Index(synthSeed, []byte(`"value":`))
		return append(slices.Clip(synthSeed[:i]), bytes.Replace(synthSeed[i:], []byte(old), []byte(new), 1)...)
	}
	f.Add(synthSeed[:len(synthSeed)/2])
	f.Add(value(`"rows":4`, `"rows":3`))
	f.Add(value(`"class":"medium"`, `"class":"large"`))
	f.Add([]byte(`{"key":{"kind":"synth","schema":2},"value":{"topology":null}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, r := range readers {
			if err := os.WriteFile(r.path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			r.read(t, blob)
		}
	})
}
