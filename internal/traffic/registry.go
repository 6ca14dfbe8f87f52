package traffic

import (
	"fmt"
	"strconv"
	"strings"

	"netsmith/internal/layout"
	"netsmith/internal/spec"
)

// The registry makes workloads pluggable: every pattern is registered
// under a name with a constructor and a self-describing parameter list,
// so drivers (netbench -matrix, the scenario smoke in CI, examples) can
// enumerate and build patterns without hard-coding them. Constructors
// return a FRESH pattern instance per call; stateful patterns (bursty)
// rely on this for safe concurrent use across matrix cells.

// Env is the network context a pattern is built for.
type Env struct {
	N          int   // router count
	Rows, Cols int   // grid shape (Rows*Cols == N for grid layouts)
	Cores, MCs []int // core-attached and memory-controller routers
}

// GridEnv derives the standard Env for an interposer grid: all routers
// are core-attached except the first/last-column memory controllers.
func GridEnv(g *layout.Grid) Env {
	return Env{
		N: g.N(), Rows: g.Rows, Cols: g.Cols,
		Cores: g.CoreRouters(), MCs: g.MemoryControllerRouters(),
	}
}

// Params carries per-pattern options as string key/values; each
// pattern declares its keys and their defaults in its entry's
// spec.ParamSpec list.
type Params = spec.Params

// Builder constructs a fresh pattern instance for an environment.
type Builder func(env Env, a spec.Args) (Pattern, error)

// Entry is one registered pattern.
type Entry = spec.Entry[Builder]

// Registry maps pattern names to builders.
type Registry struct{ *spec.Registry[Builder] }

// specKind labels the pattern registry's and parser's errors.
var specKind = spec.Kind{Pkg: "traffic", Noun: "pattern"}

// Build constructs a fresh instance of the named pattern, validating
// that every supplied parameter is one the pattern declares. A
// fixed-destination pattern under which no router of env originates a
// packet is an error: it offers no load, and a matrix would report its
// every rate as saturated. Bursty builds its base here, so it inherits
// the error.
func (r *Registry) Build(name string, env Env, p Params) (Pattern, error) {
	build, a, err := r.Lookup(name, p)
	if err != nil {
		return nil, err
	}
	pat, err := build(env, a)
	if f, ok := pat.(Fixed); ok && err == nil && f.silent() {
		where := fmt.Sprintf("the %dx%d grid", env.Rows, env.Cols)
		if env.Rows*env.Cols != env.N {
			where = fmt.Sprintf("%d routers", env.N)
		}
		return nil, fmt.Errorf("traffic: %s: no router of %s originates a packet", name, where)
	}
	return pat, err
}

// Default returns the registry of built-in patterns. The returned
// registry is freshly populated on each call, so callers may extend it
// without affecting others.
func Default() *Registry {
	r := &Registry{}
	r.Registry = spec.NewRegistry(specKind, []Entry{{
		Name: "uniform",
		Doc:  "uniform-random all-to-all (coherence proxy), 50/50 control/data",
		Build: func(env Env, _ spec.Args) (Pattern, error) {
			return Uniform{N: env.N}, nil
		},
	}, {
		Name: "shuffle",
		Doc:  "gem5 shuffle permutation (far source-destination pairs)",
		Build: func(env Env, _ spec.Args) (Pattern, error) {
			return Shuffle(env.N), nil
		},
	}, {
		Name: "memory",
		Doc:  "core-to-MC request/reply hotspot (paper Fig. 6b)",
		Build: func(env Env, _ spec.Args) (Pattern, error) {
			if len(env.Cores) == 0 || len(env.MCs) == 0 {
				return nil, fmt.Errorf("traffic: memory pattern needs cores and MCs in the environment")
			}
			return NewMemory(env.Cores, env.MCs), nil
		},
	}, {
		Name: "transpose",
		Doc:  "matrix-transpose permutation on the grid: (r,c) -> (c,r)",
		Build: func(env Env, _ spec.Args) (Pattern, error) {
			if env.Rows*env.Cols != env.N {
				return nil, fmt.Errorf("traffic: transpose needs a grid environment (%dx%d != %d)", env.Rows, env.Cols, env.N)
			}
			return Transpose(env.Rows, env.Cols), nil
		},
	}, {
		Name: "bitcomp",
		Doc:  "bit-complement permutation: dst = ^src over the address width",
		Build: func(env Env, _ spec.Args) (Pattern, error) {
			return BitComplement(env.N), nil
		},
	}, {
		Name: "bitrev",
		Doc:  "bit-reverse permutation (FFT communication)",
		Build: func(env Env, _ spec.Args) (Pattern, error) {
			return BitReverse(env.N), nil
		},
	}, {
		Name: "tornado",
		Doc:  "per-dimension half-way wraparound shift (adversarial for minimal routing)",
		Build: func(env Env, _ spec.Args) (Pattern, error) {
			if env.Rows*env.Cols != env.N {
				return nil, fmt.Errorf("traffic: tornado needs a grid environment (%dx%d != %d)", env.Rows, env.Cols, env.N)
			}
			return Tornado(env.Rows, env.Cols), nil
		},
	}, {
		Name: "hotspot",
		Doc:  "weight fraction of traffic to a hot router set, rest uniform",
		Params: []spec.ParamSpec{
			{Name: "weight", Default: "0.5", Doc: "probability a packet targets the hot set"},
			{Name: "hot", Default: "", Doc: "'+'-separated hot router ids, e.g. 0+5+7 (default: the MCs, else router 0)"},
		},
		Build: func(env Env, a spec.Args) (Pattern, error) {
			w, err := a.Float("weight")
			if err != nil {
				return nil, err
			}
			var hot []int
			for _, id := range strings.FieldsFunc(a.String("hot"), func(r rune) bool { return r == '+' || r == ' ' }) {
				v, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("traffic: parameter hot: bad router id %q", id)
				}
				hot = append(hot, v)
			}
			if hot == nil {
				if len(env.MCs) > 0 {
					hot = append(hot, env.MCs...)
				} else {
					hot = []int{0}
				}
			}
			return NewHotspot(env.N, hot, w)
		},
	}, {
		Name: "bursty",
		Doc:  "two-state MMPP on/off modulation of a base pattern",
		Params: []spec.ParamSpec{
			{Name: "base", Default: "uniform", Doc: "base pattern name (any registered pattern except bursty)"},
			{Name: "ponoff", Default: "0.02", Doc: "ON->OFF probability per injection opportunity"},
			{Name: "poffon", Default: "0.02", Doc: "OFF->ON probability per injection opportunity"},
		},
		Build: func(env Env, a spec.Args) (Pattern, error) {
			baseName := a.String("base")
			if baseName == "bursty" {
				return nil, fmt.Errorf("traffic: bursty cannot modulate itself")
			}
			base, err := r.Build(baseName, env, nil)
			if err != nil {
				return nil, err
			}
			pOnOff, err := a.Float("ponoff")
			if err != nil {
				return nil, err
			}
			pOffOn, err := a.Float("poffon")
			if err != nil {
				return nil, err
			}
			return NewBursty(base, env.N, pOnOff, pOffOn)
		},
	}}...)
	return r
}

// ParsePatternArg splits a command-line pattern argument of the form
// "name" or "name:key=val:key=val" (e.g. "hotspot:weight=0.7:hot=0+19").
func ParsePatternArg(arg string) (name string, params Params, err error) {
	return specKind.Parse(arg)
}
