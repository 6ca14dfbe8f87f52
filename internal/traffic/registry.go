package traffic

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"netsmith/internal/layout"
)

// The registry makes workloads pluggable: every pattern is registered
// under a name with a constructor and a self-describing parameter list,
// so drivers (netbench -matrix, the scenario smoke in CI, examples) can
// enumerate and build patterns without hard-coding them. Constructors
// return a FRESH pattern instance per call; stateful patterns (bursty,
// trace) rely on this for safe concurrent use across matrix cells.

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

// Params carries per-pattern options as string key/values; each pattern
// documents its keys via ParamSpec and parses them in its constructor.
type Params map[string]string

// ParamSpec documents one pattern parameter.
type ParamSpec struct {
	Name    string
	Default string // empty means "derived from Env" or required (see Doc)
	Doc     string
}

// Builder constructs a fresh pattern instance for an environment.
type Builder func(env Env, p Params) (Pattern, error)

// Entry is one registered pattern.
type Entry struct {
	Name   string
	Doc    string
	Params []ParamSpec
	Build  Builder
}

// Registry maps pattern names to constructors.
type Registry struct {
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entries: map[string]Entry{}} }

// Register adds an entry; duplicate names are an error.
func (r *Registry) Register(e Entry) error {
	if e.Name == "" || e.Build == nil {
		return fmt.Errorf("traffic: registry entry needs a name and builder")
	}
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("traffic: pattern %q already registered", e.Name)
	}
	r.entries[e.Name] = e
	return nil
}

// Names lists registered patterns in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build constructs a fresh instance of the named pattern, validating
// that every supplied parameter is one the pattern declares.
func (r *Registry) Build(name string, env Env, params Params) (Pattern, error) {
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("traffic: unknown pattern %q (have %s)", name, strings.Join(r.Names(), ", "))
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
			return nil, fmt.Errorf("traffic: pattern %q has no parameter %q", name, k)
		}
	}
	return e.Build(env, params)
}

// param returns the supplied value or the spec default.
func param(p Params, name, def string) string {
	if v, ok := p[name]; ok && v != "" {
		return v
	}
	return def
}

func floatParam(p Params, name, def string) (float64, error) {
	v, err := strconv.ParseFloat(param(p, name, def), 64)
	if err != nil {
		return 0, fmt.Errorf("traffic: parameter %s: %v", name, err)
	}
	return v, nil
}

func boolParam(p Params, name, def string) (bool, error) {
	v, err := strconv.ParseBool(param(p, name, def))
	if err != nil {
		return false, fmt.Errorf("traffic: parameter %s: %v", name, err)
	}
	return v, nil
}

func intListParam(p Params, name string) ([]int, error) {
	raw := param(p, name, "")
	if raw == "" {
		return nil, nil
	}
	var out []int
	for _, g := range strings.FieldsFunc(raw, func(r rune) bool { return r == '+' || r == ' ' }) {
		v, err := strconv.Atoi(g)
		if err != nil {
			return nil, fmt.Errorf("traffic: parameter %s: bad router id %q", name, g)
		}
		out = append(out, v)
	}
	return out, nil
}

// Default returns the registry of built-in patterns. The returned
// registry is freshly populated on each call, so callers may extend it
// without affecting others.
func Default() *Registry {
	r := NewRegistry()
	must := func(e Entry) {
		if err := r.Register(e); err != nil {
			panic(err)
		}
	}
	must(Entry{
		Name: "uniform",
		Doc:  "uniform-random all-to-all (coherence proxy), 50/50 control/data",
		Build: func(env Env, p Params) (Pattern, error) {
			return Uniform{N: env.N}, nil
		},
	})
	must(Entry{
		Name: "shuffle",
		Doc:  "gem5 shuffle permutation (far source-destination pairs)",
		Build: func(env Env, p Params) (Pattern, error) {
			return Shuffle{N: env.N}, nil
		},
	})
	must(Entry{
		Name: "memory",
		Doc:  "core-to-MC request/reply hotspot (paper Fig. 6b)",
		Build: func(env Env, p Params) (Pattern, error) {
			if len(env.Cores) == 0 || len(env.MCs) == 0 {
				return nil, fmt.Errorf("traffic: memory pattern needs cores and MCs in the environment")
			}
			return NewMemory(env.Cores, env.MCs), nil
		},
	})
	must(Entry{
		Name: "transpose",
		Doc:  "matrix-transpose permutation on the grid: (r,c) -> (c,r)",
		Build: func(env Env, p Params) (Pattern, error) {
			if env.Rows*env.Cols != env.N {
				return nil, fmt.Errorf("traffic: transpose needs a grid environment (%dx%d != %d)", env.Rows, env.Cols, env.N)
			}
			return Transpose{Rows: env.Rows, Cols: env.Cols}, nil
		},
	})
	must(Entry{
		Name: "bitcomp",
		Doc:  "bit-complement permutation: dst = ^src over the address width",
		Build: func(env Env, p Params) (Pattern, error) {
			return BitComplement{N: env.N}, nil
		},
	})
	must(Entry{
		Name: "bitrev",
		Doc:  "bit-reverse permutation (FFT communication)",
		Build: func(env Env, p Params) (Pattern, error) {
			return BitReverse{N: env.N}, nil
		},
	})
	must(Entry{
		Name: "tornado",
		Doc:  "per-dimension half-way wraparound shift (adversarial for minimal routing)",
		Build: func(env Env, p Params) (Pattern, error) {
			if env.Rows*env.Cols != env.N {
				return nil, fmt.Errorf("traffic: tornado needs a grid environment (%dx%d != %d)", env.Rows, env.Cols, env.N)
			}
			return Tornado{Rows: env.Rows, Cols: env.Cols}, nil
		},
	})
	must(Entry{
		Name: "hotspot",
		Doc:  "weight fraction of traffic to a hot router set, rest uniform",
		Params: []ParamSpec{
			{Name: "weight", Default: "0.5", Doc: "probability a packet targets the hot set"},
			{Name: "hot", Default: "", Doc: "'+'-separated hot router ids, e.g. 0+5+7 (default: the MCs, else router 0)"},
		},
		Build: func(env Env, p Params) (Pattern, error) {
			w, err := floatParam(p, "weight", "0.5")
			if err != nil {
				return nil, err
			}
			hot, err := intListParam(p, "hot")
			if err != nil {
				return nil, err
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
	})
	must(Entry{
		Name: "bursty",
		Doc:  "two-state MMPP on/off modulation of a base pattern",
		Params: []ParamSpec{
			{Name: "base", Default: "uniform", Doc: "base pattern name (any registered pattern except bursty)"},
			{Name: "ponoff", Default: "0.02", Doc: "ON->OFF probability per injection opportunity"},
			{Name: "poffon", Default: "0.02", Doc: "OFF->ON probability per injection opportunity"},
		},
		Build: func(env Env, p Params) (Pattern, error) {
			baseName := param(p, "base", "uniform")
			if baseName == "bursty" {
				return nil, fmt.Errorf("traffic: bursty cannot modulate itself")
			}
			base, err := r.Build(baseName, env, nil)
			if err != nil {
				return nil, err
			}
			pOnOff, err := floatParam(p, "ponoff", "0.02")
			if err != nil {
				return nil, err
			}
			pOffOn, err := floatParam(p, "poffon", "0.02")
			if err != nil {
				return nil, err
			}
			return NewBursty(base, env.N, pOnOff, pOffOn)
		},
	})
	must(Entry{
		Name: "trace",
		Doc:  "replay recorded (cycle,src,dst,flits) tuples per source",
		Params: []ParamSpec{
			{Name: "file", Default: "", Doc: "trace file path (required; format of traffic.ParseTrace)"},
			{Name: "loop", Default: "true", Doc: "restart a source's sequence when exhausted"},
		},
		Build: func(env Env, p Params) (Pattern, error) {
			path := param(p, "file", "")
			if path == "" {
				return nil, fmt.Errorf("traffic: trace pattern requires the file parameter")
			}
			loop, err := boolParam(p, "loop", "true")
			if err != nil {
				return nil, err
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			recs, err := ParseTrace(f)
			if err != nil {
				return nil, err
			}
			return NewReplay(strings.TrimSuffix(filepath.Base(path), ".csv"), env.N, recs, loop)
		},
	})
	return r
}

// patternKeyEscaper keeps CanonicalPatternKey injective: parameters
// arrive as arbitrary map values on the public API (not only
// ParsePatternArg output), so a value containing ':' or '=' must not
// render the same bytes as a differently-split parameter set.
var patternKeyEscaper = strings.NewReplacer("%", "%25", ":", "%3A", "=", "%3D")

// CanonicalPatternKey renders a (name, params) pair as the canonical
// "name:key=val:..." string with parameters in sorted key order (':',
// '=' and '%' percent-escaped), so two ways of writing the same
// workload produce the same string and different workloads never
// collide. It is the pattern component of content-addressed cache keys
// (sim.PatternFactory Key, the result store).
func CanonicalPatternKey(name string, p Params) string {
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
		out += ":" + patternKeyEscaper.Replace(k) + "=" + patternKeyEscaper.Replace(p[k])
	}
	return out
}

// ParsePatternArg splits a command-line pattern argument of the form
// "name" or "name:key=val:key=val" (e.g. "hotspot:weight=0.7:hot=0+19").
func ParsePatternArg(arg string) (name string, params Params, err error) {
	parts := strings.Split(arg, ":")
	name = strings.TrimSpace(parts[0])
	if name == "" {
		return "", nil, fmt.Errorf("traffic: empty pattern name in %q", arg)
	}
	if len(parts) == 1 {
		return name, nil, nil
	}
	params = Params{}
	for _, kv := range parts[1:] {
		k, v, found := strings.Cut(kv, "=")
		if !found || k == "" {
			return "", nil, fmt.Errorf("traffic: bad pattern parameter %q in %q (want key=val)", kv, arg)
		}
		params[k] = v
	}
	return name, params, nil
}
