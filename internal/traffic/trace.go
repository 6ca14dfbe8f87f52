package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// TraceRecord is one recorded injection: at Cycle, router Src sent a
// Flits-flit packet to Dst. Traces come from external tools via
// ParseTrace.
type TraceRecord struct {
	Cycle int64
	Src   int
	Dst   int
	Flits int
}

// ParseTrace reads a trace in the textual format "cycle,src,dst,flits"
// (one record per line; blank lines and #-comments ignored; an optional
// non-numeric header line is skipped).
func ParseTrace(r io.Reader) ([]TraceRecord, error) {
	var recs []TraceRecord
	sc := bufio.NewScanner(r)
	lineNo := 0
	headerOK := true // a header may precede the first record (after any comments)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("traffic: trace line %d: want 4 fields (cycle,src,dst,flits), got %d", lineNo, len(fields))
		}
		cycle, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil {
			if headerOK {
				headerOK = false
				continue // header line
			}
			return nil, fmt.Errorf("traffic: trace line %d: bad cycle %q", lineNo, fields[0])
		}
		headerOK = false
		var ints [3]int
		for i, f := range fields[1:] {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("traffic: trace line %d: bad integer %q", lineNo, f)
			}
			ints[i] = v
		}
		recs = append(recs, TraceRecord{Cycle: cycle, Src: ints[0], Dst: ints[1], Flits: ints[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// replayEntry is the per-source remainder of a record (timing is owned
// by the simulator's injection process; see Replay).
type replayEntry struct {
	dst   int
	flits int
}

// Replay feeds recorded (src, dst, flits) tuples back into the
// simulator. The engine's injection process owns *when* a source gets an
// injection opportunity; Replay supplies the recorded destination/size
// sequence of that source in trace-cycle order, looping when Loop is set
// (so long measurement windows re-run short traces) and drying up
// (ok=false) otherwise.
//
// Replay keeps per-source cursors and is NOT safe to share across
// concurrent simulations — construct one instance per run.
type Replay struct {
	tag    string
	perSrc [][]replayEntry
	next   []int
	loop   bool
	live   int // sources with records left; only decrements when !loop
}

// NewReplay validates records against the node count n and builds a
// replay pattern. Records are replayed per source in ascending Cycle
// order (ties keep input order).
func NewReplay(tag string, n int, recs []TraceRecord, loop bool) (*Replay, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	sorted := make([]TraceRecord, len(recs))
	copy(sorted, recs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })
	r := &Replay{tag: tag, perSrc: make([][]replayEntry, n), next: make([]int, n), loop: loop}
	for _, rec := range sorted {
		if rec.Src < 0 || rec.Src >= n || rec.Dst < 0 || rec.Dst >= n {
			return nil, fmt.Errorf("traffic: trace record %+v outside [0,%d)", rec, n)
		}
		if rec.Src == rec.Dst {
			return nil, fmt.Errorf("traffic: trace record %+v is a self-send", rec)
		}
		if rec.Flits < 1 {
			return nil, fmt.Errorf("traffic: trace record %+v has no flits", rec)
		}
		r.perSrc[rec.Src] = append(r.perSrc[rec.Src], replayEntry{dst: rec.Dst, flits: rec.Flits})
	}
	for _, q := range r.perSrc {
		if len(q) > 0 {
			r.live++
		}
	}
	return r, nil
}

// Name implements Pattern.
func (r *Replay) Name() string {
	if r.tag != "" {
		return "trace/" + r.tag
	}
	return "trace"
}

// Inject implements Pattern: pop the source's next recorded packet.
func (r *Replay) Inject(src int, rng *rand.Rand) (int, int, bool) {
	q := r.perSrc[src]
	if len(q) == 0 || r.next[src] >= len(q) {
		return 0, 0, false
	}
	e := q[r.next[src]]
	r.next[src]++
	if r.next[src] == len(q) {
		if r.loop {
			r.next[src] = 0
		} else {
			r.live--
		}
	}
	return e.dst, e.flits, true
}

// OnDeliver implements Pattern: traces carry replies as their own
// records, so delivery never chains.
func (r *Replay) OnDeliver(src, dst int, rng *rand.Rand) (int, int, bool) { return 0, 0, false }

// Originates implements Pattern: a source originates iff the trace
// recorded at least one packet from it.
func (r *Replay) Originates(src int) bool { return len(r.perSrc[src]) > 0 }

// Dry reports that every source's cursor is used up (non-loop traces
// only). A dry replay stays dry: Inject returns ok=false without
// touching rng or state, and OnDeliver never draws, so the simulator
// may fast-forward the rest of the generation phase.
func (r *Replay) Dry() bool { return r.live == 0 }
