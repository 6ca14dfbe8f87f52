package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// opList draws the first blocks of every client's op list.
func opList(w *workload, seed int64, blocks int) [][]op {
	var out [][]op
	for c := 0; c < w.clients; c++ {
		next := w.ops(seed, c)
		for b := 0; b < blocks; b++ {
			out = append(out, next())
		}
	}
	return out
}

// mix summarizes a block without its inputs' seeds: the count of each
// class and of warm ops.
func mix(block []op) string {
	n := map[string]int{}
	for _, o := range block {
		n[fmt.Sprintf("%s warm=%v", o.Class, o.Warm)]++
	}
	var parts []string
	for k, v := range n {
		parts = append(parts, fmt.Sprintf("%s:%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func TestOpListsDeterministicAndSeededInputsOnly(t *testing.T) {
	for _, w := range workloads {
		a, again, b := opList(w, 1, 4), opList(w, 1, 4), opList(w, 2, 4)
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: the same seed gave different op lists", w.name)
		}
		changed := false
		for i := range a {
			if mix(a[i]) != mix(b[i]) {
				t.Errorf("%s: block %d mix changed with the seed:\n%s\n%s", w.name, i, mix(a[i]), mix(b[i]))
			}
			changed = changed || !reflect.DeepEqual(a[i], b[i])
		}
		if !changed {
			t.Errorf("%s: a new seed left the op list unchanged", w.name)
		}
	}
}

// Every op a generator yields is in its pool, and golden.json holds a
// digest for every op of every pool.
func TestGeneratedOpsHaveGoldenDigests(t *testing.T) {
	for _, w := range workloads {
		pool := map[string]bool{}
		for _, o := range w.pool() {
			pool[o.Key] = true
			if _, ok := golden[o.Key]; !ok {
				t.Errorf("%s: no golden digest for pool op %s", w.name, o.Key)
			}
		}
		for _, o := range w.warmup() {
			if !pool[o.Key] {
				t.Errorf("%s: warm-up op %s is not in the pool", w.name, o.Key)
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, block := range opList(w, seed, 6) {
				for _, o := range block {
					if !pool[o.Key] {
						t.Errorf("%s: seed %d generated %s outside the pool", w.name, seed, o.Key)
					}
				}
			}
		}
	}
}

// Serve's cold bodies never repeat within a run, across clients either,
// and every client's generator outlasts a run on a machine several
// times faster than the one the benchmark was sized on.
func TestServeColdBodiesUnique(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < serveClients; c++ {
		next := serveWorkload.ops(5, c)
		blocks := 0
		for block := next(); block != nil; block = next() {
			blocks++
			for _, o := range block {
				if o.Warm {
					continue
				}
				if seen[o.Key] {
					t.Errorf("cold body %s repeats", o.Key)
				}
				seen[o.Key] = true
			}
		}
		if blocks < serveMaxBlocks {
			t.Errorf("client %d ran out after %d blocks, want %d", c, blocks, serveMaxBlocks)
		}
	}
}

func TestWarmColdSplitFollowsCacheHits(t *testing.T) {
	samples := []sample{
		{dur: time.Second, out: outcome{hit: true}},
		{dur: 2 * time.Second},
		{dur: 3 * time.Second, out: outcome{hit: true}},
		{dur: 4 * time.Second, err: fmt.Errorf("refused")},
		// A warm-pool body that missed the store counts as cold.
		{dur: 5 * time.Second, op: op{Warm: true}},
	}
	warm, cold := splitWarm(samples)
	if !reflect.DeepEqual(warm, []float64{1, 3}) || !reflect.DeepEqual(cold, []float64{2, 5}) {
		t.Errorf("warm %v cold %v; want [1 3] and [2 5]", warm, cold)
	}
}
