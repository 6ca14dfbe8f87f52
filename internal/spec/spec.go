// Package spec is the one registry behind traffic patterns and fault
// schedules: builders registered by name with self-describing
// parameters, the "name:key=val:key=val" argument syntax, and the
// canonical key a spec contributes to store cell keys.
package spec

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Params carries a spec's options as string key/values.
type Params map[string]string

// ParamSpec documents one parameter. Default is the value a builder
// reads when the parameter is absent or empty; "" means derived from
// the environment, or required (see Doc).
type ParamSpec struct {
	Name    string
	Default string
	Doc     string
}

// Kind names what a registry holds for its error messages: Pkg
// prefixes every error ("traffic") and Noun names an entry ("pattern").
type Kind struct{ Pkg, Noun string }

// Entry is one registered name. B is the registry's builder func type.
type Entry[B any] struct {
	Name   string
	Doc    string
	Params []ParamSpec
	Build  B
}

// Registry maps names to entries.
type Registry[B any] struct {
	Kind
	entries map[string]Entry[B]
}

// NewRegistry returns a registry holding entries; an entry Register
// rejects is a programming error and panics.
func NewRegistry[B any](k Kind, entries ...Entry[B]) *Registry[B] {
	r := &Registry[B]{Kind: k, entries: map[string]Entry[B]{}}
	for _, e := range entries {
		if err := r.Register(e); err != nil {
			panic(err)
		}
	}
	return r
}

// Register adds an entry; duplicate names are an error.
func (r *Registry[B]) Register(e Entry[B]) error {
	if e.Name == "" || reflect.ValueOf(e.Build).IsNil() {
		return fmt.Errorf("%s: registry entry needs a name and builder", r.Pkg)
	}
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("%s: %s %q already registered", r.Pkg, r.Noun, e.Name)
	}
	r.entries[e.Name] = e
	return nil
}

// Names lists registered names in sorted order.
func (r *Registry[B]) Names() []string {
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the named entry's builder and p bound to the entry's
// parameter list, checking that every supplied parameter is declared.
func (r *Registry[B]) Lookup(name string, p Params) (build B, a Args, err error) {
	e, ok := r.entries[name]
	if !ok {
		return build, a, fmt.Errorf("%s: unknown %s %q (have %s)", r.Pkg, r.Noun, name, strings.Join(r.Names(), ", "))
	}
	for k := range p {
		if !slices.ContainsFunc(e.Params, func(s ParamSpec) bool { return s.Name == k }) {
			return build, a, fmt.Errorf("%s: %s %q has no parameter %q", r.Pkg, r.Noun, name, k)
		}
	}
	return e.Build, Args{pkg: r.Pkg, specs: e.Params, p: p}, nil
}

// Args is a parameter set bound to its entry's declarations. Getters
// return the supplied value, or the declared default when the value is
// absent or empty, and name the package and parameter in their errors.
type Args struct {
	pkg   string
	specs []ParamSpec
	p     Params
}

// String returns the named parameter. Asking for an undeclared name is
// a programming error and panics.
func (a Args) String(name string) string {
	if v := a.p[name]; v != "" {
		return v
	}
	i := slices.IndexFunc(a.specs, func(s ParamSpec) bool { return s.Name == name })
	if i < 0 {
		panic(fmt.Sprintf("%s: parameter %s is not declared", a.pkg, name))
	}
	return a.specs[i].Default
}

// Float parses the named parameter as a float64.
func (a Args) Float(name string) (float64, error) {
	v, err := strconv.ParseFloat(a.String(name), 64)
	return v, a.wrap(name, err)
}

// Int64 parses the named parameter as a base-10 int64.
func (a Args) Int64(name string) (int64, error) {
	v, err := strconv.ParseInt(a.String(name), 10, 64)
	return v, a.wrap(name, err)
}

func (a Args) wrap(name string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: parameter %s: %v", a.pkg, name, err)
	}
	return nil
}

// Parse splits a command-line argument of the form "name" or
// "name:key=val:key=val" (e.g. "hotspot:weight=0.7:hot=0+19").
func (k Kind) Parse(arg string) (name string, p Params, err error) {
	parts := strings.Split(arg, ":")
	name = strings.TrimSpace(parts[0])
	if name == "" {
		return "", nil, fmt.Errorf("%s: empty %s name in %q", k.Pkg, k.Noun, arg)
	}
	if len(parts) == 1 {
		return name, nil, nil
	}
	p = Params{}
	for _, kv := range parts[1:] {
		key, v, found := strings.Cut(kv, "=")
		if !found || key == "" {
			return "", nil, fmt.Errorf("%s: bad %s parameter %q in %q (want key=val)", k.Pkg, k.Noun, kv, arg)
		}
		p[key] = v
	}
	return name, p, nil
}

// keyEscaper keeps Key injective: parameters arrive as arbitrary map
// values on the public API (not only Parse output), so a value
// containing ':' or '=' must not render the same bytes as a
// differently-split parameter set.
var keyEscaper = strings.NewReplacer("%", "%25", ":", "%3A", "=", "%3D")

// Key renders a (name, params) pair as the canonical "name:key=val:..."
// string with parameters in sorted key order (':', '=' and '%'
// percent-escaped), so two ways of writing the same spec produce the
// same string and different specs never collide. Keys use the
// parameters as given, not the filled-in defaults. It is the pattern
// and fault component of store cell keys.
func Key(name string, p Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := name
	for _, k := range keys {
		out += ":" + keyEscaper.Replace(k) + "=" + keyEscaper.Replace(p[k])
	}
	return out
}
