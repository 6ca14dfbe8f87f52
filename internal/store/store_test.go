package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type payload struct {
	Name string  `json:"name"`
	Rate float64 `json:"rate"`
	Seed int64   `json:"seed"`
}

type value struct {
	Latency float64   `json:"latency"`
	Counts  []uint64  `json:"counts"`
	Curve   []float64 `json:"curve"`
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("test-cell", payload{Name: "uniform", Rate: 0.08, Seed: 42})
	var got value
	if hit, err := s.Get(k, &got); err != nil || hit {
		t.Fatalf("empty store: hit=%v err=%v", hit, err)
	}
	want := value{Latency: 3.2894871293, Counts: []uint64{1, 2, 1 << 62}, Curve: []float64{0.1, 0.2}}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if hit, err := s.Get(k, &got); err != nil || !hit {
		t.Fatalf("after put: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestKeyHashSensitivity(t *testing.T) {
	base := NewKey("cell", payload{Name: "uniform", Rate: 0.08, Seed: 42})
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Identical key, independently constructed, must hash identically.
	if h1, _ := NewKey("cell", payload{Name: "uniform", Rate: 0.08, Seed: 42}).Hash(); h1 != h0 {
		t.Fatalf("equal keys hash differently: %s vs %s", h0, h1)
	}
	// Any input change must change the hash.
	variants := []Key{
		NewKey("cell2", payload{Name: "uniform", Rate: 0.08, Seed: 42}),
		NewKey("cell", payload{Name: "shuffle", Rate: 0.08, Seed: 42}),
		NewKey("cell", payload{Name: "uniform", Rate: 0.081, Seed: 42}),
		NewKey("cell", payload{Name: "uniform", Rate: 0.08, Seed: 43}),
		{Kind: "cell", Schema: SchemaVersion + 1, Payload: payload{Name: "uniform", Rate: 0.08, Seed: 42}},
	}
	for i, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h == h0 {
			t.Fatalf("variant %d hashes like the base key", i)
		}
	}
}

func TestSchemaMismatchIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("cell", payload{Name: "uniform"})
	if err := s.Put(k, value{Latency: 1}); err != nil {
		t.Fatal(err)
	}
	// Same payload under a different schema version misses.
	k2 := Key{Kind: "cell", Schema: SchemaVersion + 1, Payload: payload{Name: "uniform"}}
	var got value
	if hit, err := s.Get(k2, &got); err != nil || hit {
		t.Fatalf("bumped schema must miss: hit=%v err=%v", hit, err)
	}
}

// TestCopiedBlobIsMiss: a blob is a hit only under the key it records.
// A whole blob copied onto another key's path decodes, and its value
// fits that key's type, so only the recorded key can tell it apart.
func TestCopiedBlobIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	from, to := NewKey("cell", payload{Name: "uniform"}), NewKey("cell", payload{Name: "bursty"})
	if err := s.Put(from, value{Latency: 7}); err != nil {
		t.Fatal(err)
	}
	fromHash, _ := from.Hash()
	toHash, _ := to.Hash()
	blob, err := os.ReadFile(filepath.Join(dir, "objects", fromHash[:2], fromHash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	toPath := filepath.Join(dir, "objects", toHash[:2], toHash+".json")
	if err := os.MkdirAll(filepath.Dir(toPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(toPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var got value
	if hit, err := s.Get(to, &got); err != nil || hit {
		t.Fatalf("copied blob: hit=%v err=%v, want a miss", hit, err)
	}
	if hit, err := s.Get(from, &got); err != nil || !hit || got.Latency != 7 {
		t.Fatalf("original blob: hit=%v err=%v got=%+v", hit, err, got)
	}
}

func TestCorruptBlobIsMissAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("cell", payload{Name: "uniform"})
	if err := s.Put(k, value{Latency: 7}); err != nil {
		t.Fatal(err)
	}
	hash, _ := k.Hash()
	path := filepath.Join(dir, "objects", hash[:2], hash+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got value
	if hit, _ := s.Get(k, &got); hit {
		t.Fatal("corrupt blob must read as a miss")
	}
	// A fresh Put repairs it.
	if err := s.Put(k, value{Latency: 7}); err != nil {
		t.Fatal(err)
	}
	if hit, _ := s.Get(k, &got); !hit || got.Latency != 7 {
		t.Fatalf("after repair: hit=%v got=%+v", hit, got)
	}
}

// TestConcurrentAccess hammers one store from many goroutines mixing
// hits, misses and overlapping puts of identical content; run under
// -race (the CI race leg covers internal/store).
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys = 8, 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := 0; i < keys; i++ {
					k := NewKey("cell", payload{Name: fmt.Sprintf("p%d", i), Seed: int64(i)})
					want := value{Latency: float64(i), Counts: []uint64{uint64(i)}}
					var got value
					hit, err := s.Get(k, &got)
					if err != nil {
						errs <- err
						return
					}
					if hit && got.Latency != want.Latency {
						errs <- fmt.Errorf("key %d: got latency %v want %v", i, got.Latency, want.Latency)
						return
					}
					if !hit {
						if err := s.Put(k, want); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := s.Len(); err != nil || n != keys {
		t.Fatalf("object count: %d (err %v), want %d", n, err, keys)
	}
	hashes, err := s.Hashes()
	if err != nil || len(hashes) != keys {
		t.Fatalf("hashes: %d (err %v), want %d", len(hashes), err, keys)
	}
}
