// Package fault defines deterministic, seedable fault schedules for the
// flit engine: link and router failures, transient (fail at cycle c0,
// recover at c1) or permanent, expressed as (kind, element, start, end)
// events. Schedules share the traffic patterns' spec registry
// (internal/spec): "name:key=val:..." arguments, self-describing
// parameters and canonical keys for content-addressed caching, so the
// scenario matrix grows a fault axis without new plumbing idioms.
//
// Determinism contract: building the same schedule spec against the same
// topology always yields the same event list (seeded permutations draw
// from the topology's dense link-ID order), and the engine replays a
// given schedule bit-identically at any GOMAXPROCS.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"netsmith/internal/spec"
	"netsmith/internal/topo"
)

// Kind distinguishes what kind of element an event kills.
type Kind int

const (
	// Link kills the directed link From->To.
	Link Kind = iota
	// Router kills router Router: all its links, plus injection and
	// ejection at that node.
	Router
)

// String names the kind as used in the "list" schedule syntax.
func (k Kind) String() string {
	switch k {
	case Link:
		return "link"
	case Router:
		return "router"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one failure: the element is dead for cycles in [Start, End),
// with End == 0 meaning permanent (never recovers).
type Event struct {
	Kind     Kind
	From, To int   // directed link endpoints (Kind == Link)
	Router   int   // router id (Kind == Router)
	Start    int64 // first cycle the element is dead
	End      int64 // first cycle alive again; 0 = permanent
}

// String renders the event in the "list" schedule syntax
// (e.g. "link=0>1@100-200", "router=3@500").
func (e Event) String() string {
	var el string
	if e.Kind == Link {
		el = fmt.Sprintf("link=%d>%d", e.From, e.To)
	} else {
		el = fmt.Sprintf("router=%d", e.Router)
	}
	if e.End == 0 {
		return fmt.Sprintf("%s@%d", el, e.Start)
	}
	return fmt.Sprintf("%s@%d-%d", el, e.Start, e.End)
}

// Schedule is a validated, deterministically ordered set of fault events
// built for one concrete topology. Key is the ScheduleKey of the spec
// that built it ("" for no faults) and is the fault component of
// content-addressed cache keys.
type Schedule struct {
	Key    string
	Events []Event
}

// Empty reports whether the schedule contains no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Boundaries returns the sorted, de-duplicated cycles in [0, horizon) at
// which the set of dead elements may change: every event start and every
// transient event end. Events entirely past the horizon contribute
// nothing (they can never fire).
func (s *Schedule) Boundaries(horizon int64) []int64 {
	if s.Empty() {
		return nil
	}
	seen := make(map[int64]bool)
	var out []int64
	add := func(c int64) {
		if c >= 0 && c < horizon && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, e := range s.Events {
		add(e.Start)
		if e.End > 0 {
			add(e.End)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeadAt returns the elements dead at the given cycle: directed links as
// {from, to} pairs and router ids, both sorted and de-duplicated. Links
// of dead routers are not expanded here; the engine treats a dead router
// as killing all its ports.
func (s *Schedule) DeadAt(cycle int64) (links [][2]int, routers []int) {
	if s.Empty() {
		return nil, nil
	}
	linkSet := make(map[[2]int]bool)
	routerSet := make(map[int]bool)
	for _, e := range s.Events {
		if cycle < e.Start || (e.End > 0 && cycle >= e.End) {
			continue
		}
		if e.Kind == Link {
			linkSet[[2]int{e.From, e.To}] = true
		} else {
			routerSet[e.Router] = true
		}
	}
	for l := range linkSet {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for r := range routerSet {
		routers = append(routers, r)
	}
	sort.Ints(routers)
	return links, routers
}

// Params carries per-schedule options as string key/values; each
// schedule declares its keys and their defaults in its entry's
// spec.ParamSpec list.
type Params = spec.Params

// Builder constructs the event list of a schedule for a topology.
type Builder func(t *topo.Topology, a spec.Args) ([]Event, error)

// Entry is one registered schedule family.
type Entry = spec.Entry[Builder]

// Registry maps schedule names to builders.
type Registry struct{ *spec.Registry[Builder] }

// specKind labels the schedule registry's and parser's errors.
var specKind = spec.Kind{Pkg: "fault", Noun: "schedule"}

// Build constructs the named schedule against a topology, validating
// that every supplied parameter is declared and every produced event
// names an element that exists. The returned schedule's Key is
// ScheduleKey(name, params) and its events are deterministically
// ordered.
func (r *Registry) Build(name string, t *topo.Topology, params Params) (*Schedule, error) {
	build, a, err := r.Lookup(name, params)
	if err != nil {
		return nil, err
	}
	events, err := build(t, a)
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		if ev.Start < 0 {
			return nil, fmt.Errorf("fault: event %s has negative start", ev)
		}
		if ev.End != 0 && ev.End <= ev.Start {
			return nil, fmt.Errorf("fault: event %s ends before it starts", ev)
		}
		switch ev.Kind {
		case Link:
			if ev.From < 0 || ev.From >= t.N() || ev.To < 0 || ev.To >= t.N() || !t.Has(ev.From, ev.To) {
				return nil, fmt.Errorf("fault: event %s names a link not in topology %s", ev, t.Name)
			}
		case Router:
			if ev.Router < 0 || ev.Router >= t.N() {
				return nil, fmt.Errorf("fault: event %s names a router outside [0,%d)", ev, t.N())
			}
		default:
			return nil, fmt.Errorf("fault: event has invalid kind %d", ev.Kind)
		}
	}
	sortEvents(events)
	return &Schedule{Key: ScheduleKey(name, params), Events: events}, nil
}

// ScheduleKey is a schedule spec's component of store cell keys: its
// spec.Key, except that the bare "none" keys as "" so fault-free cells
// share keys with matrices that have no fault axis.
func ScheduleKey(name string, p Params) string {
	if name == "none" && len(p) == 0 {
		return ""
	}
	return spec.Key(name, p)
}

// sortEvents orders events deterministically and drops exact duplicates.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Router < b.Router
	})
}

// window parses the shared at/until parameters (fault onset cycle and
// recovery cycle, until=0 meaning permanent).
func window(a spec.Args) (start, end int64, err error) {
	start, err = a.Int64("at")
	if err != nil {
		return 0, 0, err
	}
	end, err = a.Int64("until")
	if err != nil {
		return 0, 0, err
	}
	if start < 0 {
		return 0, 0, fmt.Errorf("fault: parameter at must be >= 0, got %d", start)
	}
	if end != 0 && end <= start {
		return 0, 0, fmt.Errorf("fault: parameter until (%d) must be 0 or > at (%d)", end, start)
	}
	return start, end, nil
}

// Default returns the registry of built-in schedules. The returned
// registry is freshly populated on each call, so callers may extend it
// without affecting others.
func Default() *Registry {
	windowSpecs := []spec.ParamSpec{
		{Name: "at", Default: "2000", Doc: "cycle the faults set in"},
		{Name: "until", Default: "0", Doc: "cycle the faults recover (0 = permanent)"},
	}
	return &Registry{spec.NewRegistry(specKind, []Entry{{
		Name: "none",
		Doc:  "no faults (the healthy-network baseline)",
		Build: func(*topo.Topology, spec.Args) ([]Event, error) {
			return nil, nil
		},
	}, {
		Name: "klinks",
		Doc:  "k seeded-random directed link failures",
		Params: append([]spec.ParamSpec{
			{Name: "k", Default: "1", Doc: "number of distinct links to kill"},
			{Name: "seed", Default: "1", Doc: "selection seed (links drawn from dense link-ID order)"},
		}, windowSpecs...),
		Build: func(t *topo.Topology, a spec.Args) ([]Event, error) {
			k, err := a.Int64("k")
			if err != nil {
				return nil, err
			}
			seed, err := a.Int64("seed")
			if err != nil {
				return nil, err
			}
			start, end, err := window(a)
			if err != nil {
				return nil, err
			}
			links := t.Links()
			if k < 0 || k > int64(len(links)) {
				return nil, fmt.Errorf("fault: klinks k=%d out of range (topology has %d directed links)", k, len(links))
			}
			perm := rand.New(rand.NewSource(seed)).Perm(len(links))
			events := make([]Event, 0, k)
			for _, idx := range perm[:k] {
				l := links[idx]
				events = append(events, Event{Kind: Link, From: l.From, To: l.To, Start: start, End: end})
			}
			return events, nil
		},
	}, {
		Name: "krouters",
		Doc:  "k seeded-random router failures (all ports plus local inject/eject)",
		Params: append([]spec.ParamSpec{
			{Name: "k", Default: "1", Doc: "number of distinct routers to kill"},
			{Name: "seed", Default: "1", Doc: "selection seed"},
		}, windowSpecs...),
		Build: func(t *topo.Topology, a spec.Args) ([]Event, error) {
			k, err := a.Int64("k")
			if err != nil {
				return nil, err
			}
			seed, err := a.Int64("seed")
			if err != nil {
				return nil, err
			}
			start, end, err := window(a)
			if err != nil {
				return nil, err
			}
			if k < 0 || k > int64(t.N()) {
				return nil, fmt.Errorf("fault: krouters k=%d out of range (topology has %d routers)", k, t.N())
			}
			perm := rand.New(rand.NewSource(seed)).Perm(t.N())
			events := make([]Event, 0, k)
			for _, rtr := range perm[:k] {
				events = append(events, Event{Kind: Router, Router: rtr, Start: start, End: end})
			}
			return events, nil
		},
	}, {
		Name: "randlinks",
		Doc:  "every directed link fails independently with probability rate",
		Params: append([]spec.ParamSpec{
			{Name: "rate", Default: "0.05", Doc: "per-link failure probability in [0,1]"},
			{Name: "seed", Default: "1", Doc: "selection seed (links drawn in dense link-ID order)"},
		}, windowSpecs...),
		Build: func(t *topo.Topology, a spec.Args) ([]Event, error) {
			rate, err := a.Float("rate")
			if err != nil {
				return nil, err
			}
			if !(0 <= rate && rate <= 1) {
				return nil, fmt.Errorf("fault: randlinks rate=%v outside [0,1]", rate)
			}
			seed, err := a.Int64("seed")
			if err != nil {
				return nil, err
			}
			start, end, err := window(a)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			var events []Event
			for _, l := range t.Links() {
				if rng.Float64() < rate {
					events = append(events, Event{Kind: Link, From: l.From, To: l.To, Start: start, End: end})
				}
			}
			return events, nil
		},
	}, {
		Name: "list",
		Doc:  "explicit event list, e.g. list:events=link=0>1@100-200+router=3@500",
		Params: []spec.ParamSpec{
			{Name: "events", Default: "", Doc: "'+'-separated events: link=A>B@start[-end] or router=R@start[-end] (required)"},
		},
		Build: func(t *topo.Topology, a spec.Args) ([]Event, error) {
			raw := a.String("events")
			if raw == "" {
				return nil, fmt.Errorf("fault: list schedule requires the events parameter")
			}
			var events []Event
			for _, item := range strings.Split(raw, "+") {
				ev, err := parseEvent(strings.TrimSpace(item))
				if err != nil {
					return nil, err
				}
				events = append(events, ev)
			}
			return events, nil
		},
	}}...)}
}

// parseEvent parses one "list" event item: "link=A>B@start[-end]" or
// "router=R@start[-end]".
func parseEvent(item string) (Event, error) {
	kindStr, rest, found := strings.Cut(item, "=")
	if !found {
		return Event{}, fmt.Errorf("fault: bad event %q (want link=A>B@start[-end] or router=R@start[-end])", item)
	}
	el, when, found := strings.Cut(rest, "@")
	if !found {
		return Event{}, fmt.Errorf("fault: event %q is missing its @start[-end] window", item)
	}
	var ev Event
	switch kindStr {
	case "link":
		fromStr, toStr, found := strings.Cut(el, ">")
		if !found {
			return Event{}, fmt.Errorf("fault: bad link %q in event %q (want A>B)", el, item)
		}
		from, err := strconv.Atoi(fromStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad link source in event %q: %v", item, err)
		}
		to, err := strconv.Atoi(toStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad link destination in event %q: %v", item, err)
		}
		ev = Event{Kind: Link, From: from, To: to}
	case "router":
		rtr, err := strconv.Atoi(el)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad router id in event %q: %v", item, err)
		}
		ev = Event{Kind: Router, Router: rtr}
	default:
		return Event{}, fmt.Errorf("fault: unknown element kind %q in event %q", kindStr, item)
	}
	startStr, endStr, ranged := strings.Cut(when, "-")
	start, err := strconv.ParseInt(startStr, 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("fault: bad start cycle in event %q: %v", item, err)
	}
	ev.Start = start
	if ranged {
		end, err := strconv.ParseInt(endStr, 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad end cycle in event %q: %v", item, err)
		}
		ev.End = end
	}
	return ev, nil
}

// ParseScheduleArg splits a command-line fault-schedule argument of the
// form "name" or "name:key=val:key=val" (e.g. "klinks:k=2:seed=9",
// "list:events=link=0>1@100-200+router=3@500").
func ParseScheduleArg(arg string) (name string, params Params, err error) {
	return specKind.Parse(arg)
}
