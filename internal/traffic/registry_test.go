package traffic

import (
	"math/rand"
	"reflect"
	"testing"

	"netsmith/internal/layout"
	"netsmith/internal/spec"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"bitcomp", "bitrev", "bursty", "hotspot", "memory",
		"shuffle", "tornado", "transpose", "uniform"}
	if got := Default().Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

func TestRegistryBuildsAllParamFree(t *testing.T) {
	env := GridEnv(layout.Grid4x5)
	reg := Default()
	rng := rand.New(rand.NewSource(1))
	for _, name := range reg.Names() {
		p, err := reg.Build(name, env, nil)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		// Every built pattern injects a valid packet from each source
		// its static Originates answer names.
		originating := 0
		for src := 0; src < env.N; src++ {
			if !p.Originates(src) {
				continue
			}
			originating++
			dst, flits, ok := p.Inject(src, rng)
			for !ok { // bursty may be transiently OFF
				dst, flits, ok = p.Inject(src, rng)
			}
			if dst < 0 || dst >= env.N || dst == src || flits < 1 {
				t.Errorf("%s: Inject(%d) = (%d, %d)", name, src, dst, flits)
			}
		}
		if originating == 0 {
			t.Errorf("%s: no originating sources on 4x5", name)
		}
	}
}

// TestRegistryMemoryControllers is the regression test for the
// Inject-contract bugfix: under the registry, memory-controller routers
// must consistently report ok=false (they only reply) and the static
// Originates answer must agree, so the simulator's injecting-node count
// cannot be perturbed by rng draws.
func TestRegistryMemoryControllers(t *testing.T) {
	env := GridEnv(layout.Grid4x5)
	p, err := Default().Build("memory", env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	isMC := map[int]bool{}
	for _, mc := range env.MCs {
		isMC[mc] = true
	}
	for src := 0; src < env.N; src++ {
		if got := p.Originates(src); got != !isMC[src] {
			t.Errorf("Originates(%d) = %v, want %v", src, got, !isMC[src])
		}
		for i := 0; i < 200; i++ {
			dst, _, ok := p.Inject(src, rng)
			if isMC[src] && ok {
				t.Fatalf("MC %d injected", src)
			}
			if !isMC[src] {
				if !ok {
					t.Fatalf("core %d dropped an injection opportunity", src)
				}
				if !isMC[dst] {
					t.Fatalf("core %d sent a request to non-MC %d", src, dst)
				}
			}
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	env := GridEnv(layout.Grid4x5)
	reg := Default()
	if _, err := reg.Build("nosuch", env, nil); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := reg.Build("hotspot", env, Params{"heat": "1"}); err == nil {
		t.Error("undeclared parameter accepted")
	}
	if _, err := reg.Build("hotspot", env, Params{"weight": "nan%"}); err == nil {
		t.Error("malformed weight accepted")
	}
	// NaN parses as a float but must fail the range checks.
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"hotspot", Params{"weight": "nan"}},
		{"bursty", Params{"ponoff": "nan"}},
		{"bursty", Params{"poffon": "nan"}},
	} {
		if _, err := reg.Build(c.name, env, c.p); err == nil {
			t.Errorf("%s %v accepted", c.name, c.p)
		}
	}
	if _, err := reg.Build("bursty", env, Params{"base": "bursty"}); err == nil {
		t.Error("self-referential bursty accepted")
	}
	if _, err := reg.Build("uniform", Env{N: 1}, nil); err != nil {
		t.Error("uniform over one node should build (it just never injects)")
	}
	if err := reg.Register(Entry{Name: "uniform", Build: func(Env, spec.Args) (Pattern, error) { return nil, nil }}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestRegistryHotspotParams(t *testing.T) {
	env := GridEnv(layout.Grid4x5)
	p, err := Default().Build("hotspot", env, Params{"weight": "1", "hot": "7+11"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		dst, _, ok := p.Inject(0, rng)
		if !ok || (dst != 7 && dst != 11) {
			t.Fatalf("weight=1 hotspot sent to %d", dst)
		}
	}
}

func TestParsePatternArg(t *testing.T) {
	for _, c := range []struct {
		arg    string
		name   string
		params Params
		err    string
	}{
		{"hotspot:weight=0.7:hot=0+19", "hotspot", Params{"weight": "0.7", "hot": "0+19"}, ""},
		{"uniform", "uniform", nil, ""},
		{"hotspot:weight", "", nil, `traffic: bad pattern parameter "weight" in "hotspot:weight" (want key=val)`},
		{"", "", nil, `traffic: empty pattern name in ""`},
	} {
		name, p, err := ParsePatternArg(c.arg)
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
