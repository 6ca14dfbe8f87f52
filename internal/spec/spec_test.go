package spec_test

import (
	"reflect"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/fault"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/spec"
	"netsmith/internal/traffic"
)

// TestKeyPinned pins the canonical key bytes that enter store cell
// keys, through the factories that put them there: a changed byte
// would orphan every cached cell. Keys use the parameters as given,
// not the filled-in defaults.
func TestKeyPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		p    map[string]string
		want string
	}{
		{"hotspot", map[string]string{"weight": "0.7", "hot": "0+19"}, "hotspot:hot=0+19:weight=0.7"},
		{"hotspot", map[string]string{"hot": "0+19", "weight": "0.7"}, "hotspot:hot=0+19:weight=0.7"},
		{"bursty", map[string]string{"base": "shuffle", "ponoff": "0.1", "poffon": "0.05"}, "bursty:base=shuffle:poffon=0.05:ponoff=0.1"},
		{"list", map[string]string{"events": "link=0>1@100-200+router=3@500"}, "list:events=link%3D0>1@100-200+router%3D3@500"},
		{"hotspot", map[string]string{"a:b": "c=d%", "w": "x"}, "hotspot:a%3Ab=c%3Dd%25:w=x"},
		{"hotspot", map[string]string{"weight": ""}, "hotspot:weight="},
		{"uniform", nil, "uniform"},
		{"uniform", map[string]string{}, "uniform"},
		{"klinks", map[string]string{"k": "2", "seed": "1", "at": "150"}, "klinks:at=150:k=2:seed=1"},
	} {
		pf := sim.RegistryFactory(traffic.Default(), c.name, traffic.Env{}, traffic.Params(c.p))
		ff := sim.FaultRegistryFactory(fault.Default(), c.name, fault.Params(c.p))
		if pf.Key != c.want || pf.Name != c.want || ff.Key != c.want || ff.Name != c.want {
			t.Errorf("%s %v: pattern key %q, pattern name %q, fault key %q, fault name %q; want %q",
				c.name, c.p, pf.Key, pf.Name, ff.Key, ff.Name, c.want)
		}
	}
	if ff := sim.FaultRegistryFactory(fault.Default(), "none", nil); ff.Key != "" || ff.Name != "none" {
		t.Errorf("bare none: key %q name %q, want \"\" and none", ff.Key, ff.Name)
	}
}

// TestParse pins the argument grammar: surrounding space trimmed from
// the name only, the last duplicate key winning, '=' allowed in values,
// and the error texts, which carry the registry's package and noun.
func TestParse(t *testing.T) {
	k := spec.Kind{Pkg: "traffic", Noun: "pattern"}
	for _, c := range []struct {
		arg    string
		name   string
		params spec.Params
		err    string
	}{
		{"uniform", "uniform", nil, ""},
		{"  spaced  :  k = v ", "spaced", spec.Params{"  k ": " v "}, ""},
		{"name:k=v:k=w", "name", spec.Params{"k": "w"}, ""},
		{"name:k=v=w", "name", spec.Params{"k": "v=w"}, ""},
		{"name:k=", "name", spec.Params{"k": ""}, ""},
		{"name:=v", "", nil, `traffic: bad pattern parameter "=v" in "name:=v" (want key=val)`},
		{"name:", "", nil, `traffic: bad pattern parameter "" in "name:" (want key=val)`},
		{"", "", nil, `traffic: empty pattern name in ""`},
		{":", "", nil, `traffic: empty pattern name in ":"`},
	} {
		name, p, err := k.Parse(c.arg)
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

// TestBuildErrors pins the registries' error texts for an unknown name,
// an undeclared parameter and a malformed value: each names its
// package, and the value errors name the parameter.
func TestBuildErrors(t *testing.T) {
	env := traffic.GridEnv(layout.Grid4x5)
	mesh := expert.Mesh(layout.Grid4x5)
	pattern := func(name string, p map[string]string) error {
		_, err := traffic.Default().Build(name, env, p)
		return err
	}
	schedule := func(name string, p map[string]string) error {
		_, err := fault.Default().Build(name, mesh, p)
		return err
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{pattern("nosuch", nil), `traffic: unknown pattern "nosuch" (have bitcomp, bitrev, bursty, hotspot, memory, shuffle, tornado, transpose, uniform)`},
		{pattern("hotspot", map[string]string{"heat": "1"}), `traffic: pattern "hotspot" has no parameter "heat"`},
		{pattern("hotspot", map[string]string{"weight": "x"}), `traffic: parameter weight: strconv.ParseFloat: parsing "x": invalid syntax`},
		{pattern("hotspot", map[string]string{"hot": "0+y"}), `traffic: parameter hot: bad router id "y"`},
		{schedule("nosuch", nil), `fault: unknown schedule "nosuch" (have klinks, krouters, list, none, randlinks)`},
		{schedule("klinks", map[string]string{"bogus": "1"}), `fault: schedule "klinks" has no parameter "bogus"`},
		{schedule("klinks", map[string]string{"at": "x"}), `fault: parameter at: strconv.ParseInt: parsing "x": invalid syntax`},
		{schedule("randlinks", map[string]string{"rate": "x"}), `fault: parameter rate: strconv.ParseFloat: parsing "x": invalid syntax`},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("err %v, want %s", c.err, c.want)
		}
	}
}
