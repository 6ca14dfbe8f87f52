package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer. Spans of one op share Op;
// Parent is 0 for an op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Class is the op's mix category, or a replayed cell's category.
	Class string        `json:"class,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Count is work the span did, where the layer reports it: annealing
	// steps for synthesis, buffer reads plus writes for a replayed run.
	Count int64 `json:"count,omitempty"`
	// Diag marks work the traced pass adds to look inside an op (cell
	// replays, fingerprints); it is excluded from the op's equivalent
	// time when tracing overhead is computed.
	Diag bool `json:"diag,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the pass
// ends. A nil *tracer records nothing, which is the untraced pass.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is an open span plus what its children inherit. The zero scope
// (nil tracer) makes every call a no-op.
type scope struct {
	tr    *tracer
	op    int
	id    int
	class string
}

// root opens an op's top-level span.
func (t *tracer) root(op int, name, class string) scope {
	return scope{tr: t, op: op, class: class}.open(name, class, false)
}

func (s scope) open(name, class string, diag bool) scope {
	if s.tr == nil {
		return scope{}
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	id := len(s.tr.spans) + 1
	s.tr.spans = append(s.tr.spans, span{
		ID: id, Parent: s.id, Op: s.op, Name: name, Class: class,
		Start: time.Since(s.tr.t0), Diag: diag,
	})
	return scope{tr: s.tr, op: s.op, id: id, class: class}
}

// child opens a span under s, inheriting its class.
func (s scope) child(name string) scope { return s.open(name, s.class, false) }

// diag opens a diagnostic span under s with its own class.
func (s scope) diag(name, class string) scope { return s.open(name, class, true) }

func (s scope) end() { s.endCount(0) }

func (s scope) endCount(n int64) {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.t0)
	s.tr.mu.Lock()
	sp := &s.tr.spans[s.id-1]
	sp.End, sp.Count = now, n
	s.tr.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of it that its child spans cover. Children may overlap (calls
// made in parallel), so the covered part is the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
