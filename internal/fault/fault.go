// Package fault defines deterministic, seedable fault schedules for the
// flit engine: link and router failures, transient (fail at cycle c0,
// recover at c1) or permanent, expressed as (kind, element, start, end)
// events. Schedules are registered and parsed exactly like traffic
// patterns — "name:key=val:..." arguments, a self-describing registry,
// and canonical keys for content-addressed caching — so the scenario
// matrix can grow a fault axis without new plumbing idioms.
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
// built for one concrete topology. Key is the canonical schedule key
// (CanonicalScheduleKey of the spec that built it; "" for no faults) and
// is the fault component of content-addressed cache keys.
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

// Params carries per-schedule options as string key/values, mirroring
// traffic.Params.
type Params map[string]string

// ParamSpec documents one schedule parameter.
type ParamSpec struct {
	Name    string
	Default string
	Doc     string
}

// Builder constructs the event list of a schedule for a topology.
type Builder func(t *topo.Topology, p Params) ([]Event, error)

// Entry is one registered schedule family.
type Entry struct {
	Name   string
	Doc    string
	Params []ParamSpec
	Build  Builder
}

// Registry maps schedule names to constructors.
type Registry struct {
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entries: map[string]Entry{}} }

// Register adds an entry; duplicate names are an error.
func (r *Registry) Register(e Entry) error {
	if e.Name == "" || e.Build == nil {
		return fmt.Errorf("fault: registry entry needs a name and builder")
	}
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("fault: schedule %q already registered", e.Name)
	}
	r.entries[e.Name] = e
	return nil
}

// Names lists registered schedules in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build constructs the named schedule against a topology, validating
// that every supplied parameter is declared and every produced event
// names an element that exists. The returned schedule's Key is the
// canonical key of (name, params) and its events are deterministically
// ordered.
func (r *Registry) Build(name string, t *topo.Topology, params Params) (*Schedule, error) {
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("fault: unknown schedule %q (have %s)", name, strings.Join(r.Names(), ", "))
	}
	for k := range params {
		known := false
		for _, s := range e.Params {
			if s.Name == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("fault: schedule %q has no parameter %q", name, k)
		}
	}
	events, err := e.Build(t, params)
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
	key := ""
	if !(name == "none" && len(params) == 0) {
		key = CanonicalScheduleKey(name, params)
	}
	return &Schedule{Key: key, Events: events}, nil
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

// param returns the supplied value or the spec default.
func param(p Params, name, def string) string {
	if v, ok := p[name]; ok && v != "" {
		return v
	}
	return def
}

func intParam(p Params, name, def string) (int, error) {
	v, err := strconv.Atoi(param(p, name, def))
	if err != nil {
		return 0, fmt.Errorf("fault: parameter %s: %v", name, err)
	}
	return v, nil
}

func int64Param(p Params, name, def string) (int64, error) {
	v, err := strconv.ParseInt(param(p, name, def), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("fault: parameter %s: %v", name, err)
	}
	return v, nil
}

func floatParam(p Params, name, def string) (float64, error) {
	v, err := strconv.ParseFloat(param(p, name, def), 64)
	if err != nil {
		return 0, fmt.Errorf("fault: parameter %s: %v", name, err)
	}
	return v, nil
}

// window parses the shared at/until parameters (fault onset cycle and
// recovery cycle, until=0 meaning permanent).
func window(p Params) (start, end int64, err error) {
	start, err = int64Param(p, "at", "2000")
	if err != nil {
		return 0, 0, err
	}
	end, err = int64Param(p, "until", "0")
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
	r := NewRegistry()
	must := func(e Entry) {
		if err := r.Register(e); err != nil {
			panic(err)
		}
	}
	windowSpecs := []ParamSpec{
		{Name: "at", Default: "2000", Doc: "cycle the faults set in"},
		{Name: "until", Default: "0", Doc: "cycle the faults recover (0 = permanent)"},
	}
	must(Entry{
		Name: "none",
		Doc:  "no faults (the healthy-network baseline)",
		Build: func(t *topo.Topology, p Params) ([]Event, error) {
			return nil, nil
		},
	})
	must(Entry{
		Name: "klinks",
		Doc:  "k seeded-random directed link failures",
		Params: append([]ParamSpec{
			{Name: "k", Default: "1", Doc: "number of distinct links to kill"},
			{Name: "seed", Default: "1", Doc: "selection seed (links drawn from dense link-ID order)"},
		}, windowSpecs...),
		Build: func(t *topo.Topology, p Params) ([]Event, error) {
			k, err := intParam(p, "k", "1")
			if err != nil {
				return nil, err
			}
			seed, err := int64Param(p, "seed", "1")
			if err != nil {
				return nil, err
			}
			start, end, err := window(p)
			if err != nil {
				return nil, err
			}
			links := t.Links()
			if k < 0 || k > len(links) {
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
	})
	must(Entry{
		Name: "krouters",
		Doc:  "k seeded-random router failures (all ports plus local inject/eject)",
		Params: append([]ParamSpec{
			{Name: "k", Default: "1", Doc: "number of distinct routers to kill"},
			{Name: "seed", Default: "1", Doc: "selection seed"},
		}, windowSpecs...),
		Build: func(t *topo.Topology, p Params) ([]Event, error) {
			k, err := intParam(p, "k", "1")
			if err != nil {
				return nil, err
			}
			seed, err := int64Param(p, "seed", "1")
			if err != nil {
				return nil, err
			}
			start, end, err := window(p)
			if err != nil {
				return nil, err
			}
			if k < 0 || k > t.N() {
				return nil, fmt.Errorf("fault: krouters k=%d out of range (topology has %d routers)", k, t.N())
			}
			perm := rand.New(rand.NewSource(seed)).Perm(t.N())
			events := make([]Event, 0, k)
			for _, rtr := range perm[:k] {
				events = append(events, Event{Kind: Router, Router: rtr, Start: start, End: end})
			}
			return events, nil
		},
	})
	must(Entry{
		Name: "randlinks",
		Doc:  "every directed link fails independently with probability rate",
		Params: append([]ParamSpec{
			{Name: "rate", Default: "0.05", Doc: "per-link failure probability in [0,1]"},
			{Name: "seed", Default: "1", Doc: "selection seed (links drawn in dense link-ID order)"},
		}, windowSpecs...),
		Build: func(t *topo.Topology, p Params) ([]Event, error) {
			rate, err := floatParam(p, "rate", "0.05")
			if err != nil {
				return nil, err
			}
			if rate < 0 || rate > 1 {
				return nil, fmt.Errorf("fault: randlinks rate=%v outside [0,1]", rate)
			}
			seed, err := int64Param(p, "seed", "1")
			if err != nil {
				return nil, err
			}
			start, end, err := window(p)
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
	})
	must(Entry{
		Name: "list",
		Doc:  "explicit event list, e.g. list:events=link=0>1@100-200+router=3@500",
		Params: []ParamSpec{
			{Name: "events", Default: "", Doc: "'+'-separated events: link=A>B@start[-end] or router=R@start[-end] (required)"},
		},
		Build: func(t *topo.Topology, p Params) ([]Event, error) {
			raw := param(p, "events", "")
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
	})
	return r
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

// scheduleKeyEscaper keeps CanonicalScheduleKey injective, mirroring the
// traffic pattern-key escaping: values containing ':' or '=' must not
// render the same bytes as a differently-split parameter set.
var scheduleKeyEscaper = strings.NewReplacer("%", "%25", ":", "%3A", "=", "%3D")

// CanonicalScheduleKey renders a (name, params) pair as the canonical
// "name:key=val:..." string with parameters in sorted key order (':',
// '=' and '%' percent-escaped). It is the fault component of
// content-addressed cache keys; the no-fault schedule uses the empty
// string so healthy-network cell payloads are unchanged.
func CanonicalScheduleKey(name string, p Params) string {
	if len(p) == 0 {
		return name
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := name
	for _, k := range keys {
		out += ":" + scheduleKeyEscaper.Replace(k) + "=" + scheduleKeyEscaper.Replace(p[k])
	}
	return out
}

// ParseScheduleArg splits a command-line fault-schedule argument of the
// form "name" or "name:key=val:key=val" (e.g. "klinks:k=2:seed=9",
// "list:events=link=0>1@100-200+router=3@500").
func ParseScheduleArg(arg string) (name string, params Params, err error) {
	parts := strings.Split(arg, ":")
	name = strings.TrimSpace(parts[0])
	if name == "" {
		return "", nil, fmt.Errorf("fault: empty schedule name in %q", arg)
	}
	if len(parts) == 1 {
		return name, nil, nil
	}
	params = Params{}
	for _, kv := range parts[1:] {
		k, v, found := strings.Cut(kv, "=")
		if !found || k == "" {
			return "", nil, fmt.Errorf("fault: bad schedule parameter %q in %q (want key=val)", kv, arg)
		}
		params[k] = v
	}
	return name, params, nil
}
