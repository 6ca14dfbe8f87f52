package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms},
		// Two children running in parallel overlap on [20, 30): the
		// parent's covered part is their union [10, 50).
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},
		// A grandchild counts against its own parent only.
		{ID: 4, Parent: 2, Start: 15 * ms, End: 20 * ms},
		// A child running past its parent's end is clipped.
		{ID: 5, Parent: 1, Start: 90 * ms, End: 120 * ms},
		// A separate root with no children keeps its whole duration.
		{ID: 6, Start: 200 * ms, End: 230 * ms},
	}
	want := map[int]time.Duration{1: 50 * ms, 2: 15 * ms, 3: 30 * ms, 4: 5 * ms, 5: 30 * ms, 6: 30 * ms}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
}

func TestSelfTimeDisjointChildren(t *testing.T) {
	p := span{ID: 1, Start: 0, End: 10}
	kids := []span{{Start: 6, End: 8}, {Start: 1, End: 3}, {Start: 2, End: 4}}
	if got := covered(p, kids); got != 5 {
		t.Errorf("covered = %v, want 5 (union [1,4) + [6,8))", got)
	}
}

func TestTracerRecordsTreeAndNilTracerIsInert(t *testing.T) {
	tr := newTracer()
	root := tr.root(7, "op", "plain")
	c := root.child("sim.run_matrix")
	d := root.diag("sim.replay", "idle")
	d.endCount(42)
	c.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[0].ID {
		t.Errorf("children not attached to the root: %+v", spans)
	}
	if spans[1].Class != "plain" || spans[2].Class != "idle" || !spans[2].Diag || spans[2].Count != 42 {
		t.Errorf("span attributes wrong: %+v", spans)
	}
	for _, s := range spans {
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}

	var none *tracer
	sc := none.root(1, "op", "")
	sc.child("x").end()
	sc.end()
	if none.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

// The traced pass's overhead leaves out diagnostic spans and counts
// ops whose digests differ from their untraced twins.
func TestTraceOverhead(t *testing.T) {
	a := &pass{samples: []sample{
		{client: 0, seq: 0, dur: 100, out: outcome{digest: "a"}},
		{client: 0, seq: 1, dur: 100, out: outcome{digest: "b"}},
		{client: 0, seq: 2, dur: 100, out: outcome{digest: "c"}},
	}}
	b := &pass{samples: []sample{
		{client: 0, seq: 0, opID: 1, dur: 150, out: outcome{digest: "a"}},
		{client: 0, seq: 1, opID: 2, dur: 110, out: outcome{digest: "x"}},
	}}
	spans := []span{{ID: 1, Op: 1, Start: 0, End: 150}, {ID: 2, Parent: 1, Op: 1, Start: 100, End: 140, Diag: true}}
	frac, pairs, mismatched := traceOverhead(a, b, spans)
	if pairs != 1 || mismatched != 1 {
		t.Fatalf("%d pairs compared, %d mismatched; want 1 and 1", pairs, mismatched)
	}
	if want := 0.1; frac < want-1e-9 || frac > want+1e-9 {
		t.Errorf("overhead %g, want %g", frac, want)
	}
}
