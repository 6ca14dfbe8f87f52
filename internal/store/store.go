// Package store is a content-addressed on-disk result cache for the
// deterministic cores of the system. A cached artifact is addressed by
// the SHA-256 hash of a canonical JSON encoding of its request — the
// full set of inputs that determine the result bit-for-bit (topology or
// synthesis config+seed, pattern name+params, offered rate, simulator
// knobs) plus the store schema version. Because matrix cells and
// synthesis runs are bit-identical across reruns and
// GOMAXPROCS (the determinism contract pinned since PR 2/3), a cache
// hit IS the result: callers get back exactly the bytes a fresh run
// would produce.
//
// Layout on disk:
//
//	<dir>/objects/<hh>/<hash>.json   one self-describing JSON blob per
//	                                 artifact ({"key": ..., "value": ...})
//
// Blob writes are atomic (temp file + rename) and content-addressed, so
// concurrent writers — goroutines of one process or separate shard
// processes sharing a directory — can only ever race to write identical
// bytes. The objects tree is the whole store: Len and Hashes walk it.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SchemaVersion is baked into every cache key. Bump it whenever the
// encoding of stored values or the meaning of key payloads changes;
// old entries then simply stop matching (no migration, no stale hits).
// v2: sim.Result gained robustness fields (delivered fraction, drop and
// reroute counters, per-phase latency) and cell payloads a fault key.
const SchemaVersion = 2

// Key identifies a cached artifact: a kind namespace, the schema
// version, and a canonical request payload. The payload must marshal
// deterministically — structs with fixed field order, maps (encoding/json
// sorts keys), numbers and strings — and must include every input that
// influences the cached value.
type Key struct {
	Kind    string `json:"kind"`
	Schema  int    `json:"schema"`
	Payload any    `json:"payload"`
}

// NewKey returns a Key for the payload under the current SchemaVersion.
func NewKey(kind string, payload any) Key {
	return Key{Kind: kind, Schema: SchemaVersion, Payload: payload}
}

// Hash returns the hex SHA-256 of the key's canonical JSON encoding.
func (k Key) Hash() (string, error) {
	_, hash, err := k.encode()
	return hash, err
}

// encode returns the key's canonical JSON encoding and its hex SHA-256.
func (k Key) encode() ([]byte, string, error) {
	b, err := json.Marshal(k)
	if err != nil {
		return nil, "", fmt.Errorf("store: marshal key: %w", err)
	}
	sum := sha256.Sum256(b)
	return b, hex.EncodeToString(sum[:]), nil
}

// Store is a content-addressed cache rooted at a directory. It is safe
// for concurrent use by multiple goroutines; separate processes may
// share a directory (writes are atomic renames).
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entry is the on-disk blob format: the key's canonical encoding is
// stored alongside the value, so blobs are self-describing and
// auditable, and a read can tell whether a blob is the one it asked for.
type entry struct {
	Key   json.RawMessage `json:"key"`
	Value json.RawMessage `json:"value"`
}

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash+".json")
}

// Get looks the key up and, on a hit, unmarshals the stored value into
// out (a pointer). A missing or unreadable blob is a miss, not an
// error: the caller recomputes and overwrites. So is a blob recorded
// under any other key (one copied onto this key's path): a hit's
// recorded key bytes equal the encoding Hash digests and Put writes.
func (s *Store) Get(k Key, out any) (bool, error) {
	kb, hash, err := k.encode()
	if err != nil {
		return false, err
	}
	b, err := os.ReadFile(s.objectPath(hash))
	if err != nil {
		return false, nil // miss (not found, or unreadable: recompute)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return false, nil // corrupt blob: treat as miss, Put will rewrite
	}
	if !bytes.Equal(e.Key, kb) {
		return false, nil
	}
	if err := json.Unmarshal(e.Value, out); err != nil {
		return false, nil
	}
	return true, nil
}

// Put stores the value under the key, atomically. Re-putting an
// existing key is a no-op rewrite of identical bytes (content
// addressing: same key, same deterministic value).
func (s *Store) Put(k Key, v any) error {
	kb, hash, err := k.encode()
	if err != nil {
		return err
	}
	val, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal value: %w", err)
	}
	blob, err := json.Marshal(entry{Key: kb, Value: val})
	if err != nil {
		return fmt.Errorf("store: marshal entry: %w", err)
	}
	path := s.objectPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return atomicWrite(path, blob)
}

// atomicWrite writes data to path via a temp file + rename, so readers
// never observe a partial blob. The blob is made world-readable
// (CreateTemp defaults to 0600, which would silently turn a store
// directory shared between users — shard processes on a network
// filesystem — into all-miss EACCES reads for everyone but the
// writer).
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Chmod(0o644)
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("store: %w", werr)
		}
		return fmt.Errorf("store: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len counts the objects on disk.
func (s *Store) Len() (int, error) {
	count := 0
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			count++
		}
		return nil
	})
	return count, err
}

// Hashes lists the content hashes of all objects on disk, sorted.
func (s *Store) Hashes() ([]string, error) {
	var out []string
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			base := filepath.Base(path)
			out = append(out, base[:len(base)-len(".json")])
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}
