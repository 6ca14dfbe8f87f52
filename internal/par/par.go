// Package par is the fan-out helper behind every deterministic parallel
// loop outside the simulator's matrix pool: synthesis restarts,
// population members and children (internal/synth), per-source path
// enumeration and filtering and MCLB restarts (internal/route), and VC
// layering tries (internal/vc).
//
// Callers keep results deterministic by one rule: item i's computation
// reads only its index and read-only shared state, writes only its own
// result slot (or per-worker scratch), and anything drawn from a shared
// rng is drawn before the fan-out, in index order. Merges then run in
// index order after For returns, so no result depends on scheduling or
// GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the fan-out: the callers' item counts (restarts,
// tries, members, sources) gain little past it.
const maxWorkers = 8

// Workers returns the number of workers For(n, ...) runs on:
// min(GOMAXPROCS, 8, n).
func Workers(n int) int {
	return min(runtime.GOMAXPROCS(0), maxWorkers, n)
}

// For runs fn(w, i) for every i in [0, n) on Workers(n) workers. w is
// the worker running the call, in [0, Workers(n)), so a caller can keep
// per-worker scratch in a slice of that length: one worker's calls never
// overlap. Each worker takes indices in increasing order. With one
// worker every call runs on the calling goroutine.
func For(n int, fn func(w, i int)) {
	workers := Workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// The workers share one heap object for the wait group and the work
	// counter: fn already escapes, and the benchdiff gate holds the
	// callers' allocs/op exactly.
	var pool struct {
		wg   sync.WaitGroup
		next atomic.Int64
	}
	for w := 0; w < workers; w++ {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			for {
				i := pool.next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(w, int(i))
			}
		}()
	}
	pool.wg.Wait()
}
