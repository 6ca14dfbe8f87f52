package fault

import (
	"reflect"
	"strings"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/topo"
)

func meshTopo(t *testing.T) *topo.Topology {
	t.Helper()
	return expert.Mesh(layout.NewGrid(4, 5))
}

func TestBuildKLinksDeterministic(t *testing.T) {
	tp := meshTopo(t)
	reg := Default()
	p := Params{"k": "3", "seed": "9", "at": "500"}
	a, err := reg.Build("klinks", tp, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b, err := reg.Build("klinks", tp, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("klinks not deterministic:\n%v\nvs\n%v", a.Events, b.Events)
	}
	if len(a.Events) != 3 {
		t.Fatalf("klinks k=3 produced %d events", len(a.Events))
	}
	seen := map[[2]int]bool{}
	for _, e := range a.Events {
		if e.Kind != Link || e.Start != 500 || e.End != 0 {
			t.Fatalf("unexpected event %v", e)
		}
		if !tp.Has(e.From, e.To) {
			t.Fatalf("event %v names a missing link", e)
		}
		if seen[[2]int{e.From, e.To}] {
			t.Fatalf("duplicate link in %v", a.Events)
		}
		seen[[2]int{e.From, e.To}] = true
	}
	if a.Key != "klinks:at=500:k=3:seed=9" {
		t.Fatalf("canonical key = %q", a.Key)
	}
	// A different seed picks a different link set (true for the mesh's
	// 62 directed links with these two seeds).
	c, err := reg.Build("klinks", tp, Params{"k": "3", "seed": "10", "at": "500"})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("seeds 9 and 10 picked identical links: %v", a.Events)
	}
}

func TestBuildKRouters(t *testing.T) {
	tp := meshTopo(t)
	s, err := Default().Build("krouters", tp, Params{"k": "2", "seed": "4", "at": "100", "until": "300"})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(s.Events) != 2 {
		t.Fatalf("krouters k=2 produced %d events", len(s.Events))
	}
	for _, e := range s.Events {
		if e.Kind != Router || e.Start != 100 || e.End != 300 {
			t.Fatalf("unexpected event %v", e)
		}
	}
}

func TestBuildRandLinksRateBounds(t *testing.T) {
	tp := meshTopo(t)
	reg := Default()
	if _, err := reg.Build("randlinks", tp, Params{"rate": "1.5"}); err == nil {
		t.Fatal("rate=1.5 accepted")
	}
	zero, err := reg.Build("randlinks", tp, Params{"rate": "0"})
	if err != nil {
		t.Fatalf("rate=0: %v", err)
	}
	if !zero.Empty() {
		t.Fatalf("rate=0 produced events: %v", zero.Events)
	}
	all, err := reg.Build("randlinks", tp, Params{"rate": "1"})
	if err != nil {
		t.Fatalf("rate=1: %v", err)
	}
	if len(all.Events) != tp.NumDirectedLinks() {
		t.Fatalf("rate=1 produced %d events, want %d", len(all.Events), tp.NumDirectedLinks())
	}
}

func TestBuildList(t *testing.T) {
	tp := meshTopo(t)
	s, err := Default().Build("list", tp, Params{"events": "link=0>1@100-200+router=3@500"})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := []Event{
		{Kind: Link, From: 0, To: 1, Start: 100, End: 200},
		{Kind: Router, Router: 3, Start: 500},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("events = %v, want %v", s.Events, want)
	}
	// Round-trip through Event.String and the list syntax.
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	s2, err := Default().Build("list", tp, Params{"events": strings.Join(parts, "+")})
	if err != nil {
		t.Fatalf("re-Build: %v", err)
	}
	if !reflect.DeepEqual(s.Events, s2.Events) {
		t.Fatalf("list round-trip mismatch: %v vs %v", s.Events, s2.Events)
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	tp := meshTopo(t)
	reg := Default()
	cases := []struct {
		name string
		p    Params
	}{
		{"list", Params{"events": "link=0>7@100"}},     // 0->7 not a mesh link
		{"list", Params{"events": "link=0>99@100"}},    // out of range
		{"list", Params{"events": "router=99@100"}},    // out of range
		{"list", Params{"events": "link=0>1@200-100"}}, // ends before start
		{"list", Params{"events": "link=0>1@-5"}},      // negative start
		{"list", Params{"events": "gizmo=1@5"}},        // unknown kind
		{"list", Params{"events": "link=0>1"}},         // no window
		{"list", Params{}},                             // events required
		{"klinks", Params{"k": "9999"}},                // more than links
		{"klinks", Params{"k": "1", "bogus": "1"}},     // unknown param
		{"klinks", Params{"k": "1", "until": "10"}},    // until <= default at
		{"randlinks", Params{"rate": "nan"}},           // NaN fails the [0,1] check
		{"nosuch", nil},                                // unknown schedule
	}
	for _, c := range cases {
		if _, err := reg.Build(c.name, tp, c.p); err == nil {
			t.Errorf("Build(%q, %v) accepted", c.name, c.p)
		}
	}
}

func TestScheduleBoundariesAndDeadAt(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: Link, From: 0, To: 1, Start: 100, End: 200},
		{Kind: Link, From: 1, To: 2, Start: 100},
		{Kind: Router, Router: 3, Start: 0, End: 50},
		{Kind: Router, Router: 4, Start: 9000},
	}}
	got := s.Boundaries(1000)
	want := []int64{0, 50, 100, 200}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Boundaries = %v, want %v", got, want)
	}
	links, routers := s.DeadAt(150)
	if !reflect.DeepEqual(links, [][2]int{{0, 1}, {1, 2}}) || len(routers) != 0 {
		t.Fatalf("DeadAt(150) = %v, %v", links, routers)
	}
	links, routers = s.DeadAt(10)
	if len(links) != 0 || !reflect.DeepEqual(routers, []int{3}) {
		t.Fatalf("DeadAt(10) = %v, %v", links, routers)
	}
	links, routers = s.DeadAt(500)
	if !reflect.DeepEqual(links, [][2]int{{1, 2}}) || len(routers) != 0 {
		t.Fatalf("DeadAt(500) = %v, %v", links, routers)
	}
	if (&Schedule{}).Boundaries(1000) != nil {
		t.Fatal("empty schedule has boundaries")
	}
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Fatal("nil schedule not Empty")
	}
}

func TestNoneHasEmptyKey(t *testing.T) {
	s, err := Default().Build("none", meshTopo(t), nil)
	if err != nil {
		t.Fatalf("Build(none): %v", err)
	}
	if s.Key != "" || !s.Empty() {
		t.Fatalf("none schedule: key %q, %d events", s.Key, len(s.Events))
	}
}

func TestCanonicalScheduleKey(t *testing.T) {
	k1 := ScheduleKey("klinks", Params{"seed": "9", "k": "2"})
	k2 := ScheduleKey("klinks", Params{"k": "2", "seed": "9"})
	if k1 != k2 || k1 != "klinks:k=2:seed=9" {
		t.Fatalf("canonical keys %q / %q", k1, k2)
	}
	// Escaping keeps the key injective for hostile values.
	esc := ScheduleKey("list", Params{"events": "link=0>1@5"})
	if esc != "list:events=link%3D0>1@5" {
		t.Fatalf("escaped key = %q", esc)
	}
	// Only the bare fault-free schedule keys as "".
	if k := ScheduleKey("none", nil); k != "" {
		t.Fatalf("bare none key = %q", k)
	}
	if k := ScheduleKey("none", Params{"x": "1"}); k != "none:x=1" {
		t.Fatalf("parameterized none key = %q", k)
	}
}

func TestParseScheduleArg(t *testing.T) {
	for _, c := range []struct {
		arg    string
		name   string
		params Params
		err    string
	}{
		{"klinks:k=2:seed=9", "klinks", Params{"k": "2", "seed": "9"}, ""},
		{"list:events=link=0>1@100-200+router=3@500", "list", Params{"events": "link=0>1@100-200+router=3@500"}, ""},
		{"none", "none", nil, ""},
		{"", "", nil, `fault: empty schedule name in ""`},
		{"name:noequals", "", nil, `fault: bad schedule parameter "noequals" in "name:noequals" (want key=val)`},
	} {
		name, p, err := ParseScheduleArg(c.arg)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("%q: err %v, want %s", c.arg, err, c.err)
			}
			continue
		}
		if err != nil || name != c.name || !reflect.DeepEqual(p, c.params) {
			t.Errorf("%q = %q %v %v, want %q %v", c.arg, name, p, err, c.name, c.params)
		}
	}
}
