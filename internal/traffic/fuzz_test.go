package traffic

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzParsePattern hardens the registry's CLI syntax ("name" or
// "name:key=val:key=val"): parsing must never panic, a successful parse
// must yield a non-empty name, and rebuilding the canonical argument
// from the parsed pieces must round-trip to the same name and params.
// Accepted arguments are additionally pushed through Registry.Build to
// shake out constructor panics on hostile parameter values — builders
// must return errors, never crash.
func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{
		"uniform",
		"shuffle",
		"hotspot:weight=0.7:hot=0+19",
		"hotspot:weight=nan",
		"bursty:base=shuffle:ponoff=0.1:poffon=0.05",
		"bursty:base=bursty",
		"bursty:ponoff=nan:poffon=nan",
		"  spaced  :  k = v ",
		":",
		"name:noequals",
		"name:k=v:k=w",
		"a=b:k=v",
		"name:k=v=w",
	} {
		f.Add(seed)
	}
	env := Env{N: 20, Rows: 4, Cols: 5, Cores: []int{1, 2, 3}, MCs: []int{0, 19}}
	reg := Default()
	f.Fuzz(func(t *testing.T, arg string) {
		name, params, err := ParsePatternArg(arg)
		if err != nil {
			return
		}
		if name == "" {
			t.Fatalf("ParsePatternArg(%q) accepted an empty name", arg)
		}
		// Canonical rebuild: the split runs on ":" before "=", so parsed
		// values can never contain ":" and re-parsing must reproduce the
		// exact name/params pair.
		rebuilt := name
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rebuilt += ":" + k + "=" + params[k]
		}
		name2, params2, err2 := ParsePatternArg(rebuilt)
		if err2 != nil {
			t.Fatalf("round-trip %q -> %q failed to parse: %v", arg, rebuilt, err2)
		}
		if name2 != strings.TrimSpace(name) {
			t.Fatalf("round-trip name %q != %q (arg %q)", name2, name, arg)
		}
		if len(params) > 0 && !reflect.DeepEqual(params, params2) {
			t.Fatalf("round-trip params %v != %v (arg %q)", params2, params, arg)
		}
		_, _ = reg.Build(name, env, params) // must not panic
	})
}

// FuzzParseTrace hardens the trace file format: parsing arbitrary bytes
// must never panic, and any accepted trace must survive a
// parse -> WriteTrace -> parse round trip record-for-record.
func FuzzParseTrace(f *testing.F) {
	for _, seed := range []string{
		"cycle,src,dst,flits\n0,1,2,3\n5,2,1,9\n",
		"# comment\n\n12,0,3,1\n",
		"0,1,2\n",
		"0,1,2,3,4\n",
		"x,y,z,w\nnot,a,header,twice\n",
		"-3,-1,-2,-9\n",
		"9223372036854775807,0,1,1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, recs); err != nil {
			t.Fatalf("WriteTrace on parsed records: %v", err)
		}
		recs2, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("re-parse of written trace: %v", err)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("trace round-trip mismatch:\n%v\nvs\n%v", recs, recs2)
		}
	})
}
