package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryIndexOnce checks that For calls fn once per index,
// names only workers below Workers(n), and never runs two calls of one
// worker at a time.
func TestForRunsEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 3, 16} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 100} {
			calls := make([]atomic.Int32, n)
			busy := make([]atomic.Bool, Workers(n))
			For(n, func(w, i int) {
				if w < 0 || w >= len(busy) {
					t.Errorf("worker %d of %d", w, len(busy))
					return
				}
				if busy[w].Swap(true) {
					t.Errorf("worker %d runs two calls at once", w)
				}
				calls[i].Add(1)
				busy[w].Store(false)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, c)
				}
			}
		}
	}
	if w := Workers(100); w > maxWorkers {
		t.Errorf("Workers(100) = %d, above the cap %d", w, maxWorkers)
	}
}
