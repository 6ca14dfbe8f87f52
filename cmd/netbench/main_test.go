package main

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"netsmith/internal/sim"
)

// TestParseFloatList's rows, which also seed FuzzParseFloatList.
var (
	parseFloatListGood = map[string][]float64{
		"":                nil,
		"   ":             nil,
		"0.02":            {0.02},
		" 0.02 , 0.1 ,1 ": {0.02, 0.1, 1},
		"0,-1":            {0, -1},
	}
	parseFloatListBad = []string{"abc", "0.1,abc", "0.1,", ",0.1", "0.1 0.2", "0.1,,0.2"}
)

// TestParseFloatList: the flag lists only parse; the job validates the
// values, so zero, negative and non-finite entries get through here.
func TestParseFloatList(t *testing.T) {
	for in, want := range parseFloatListGood {
		got, err := parseFloatList("rate", in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseFloatList(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range parseFloatListBad {
		if got, err := parseFloatList("rate", in); err == nil {
			t.Errorf("parseFloatList(%q) = %v, want an error", in, got)
		}
	}
}

// FuzzParseFloatList: no input panics, and an accepted list holds one
// value per comma-separated field (none for a blank flag) and parses
// back to the same values, bit for bit up to NaN payloads, from its
// shortest printed form.
func FuzzParseFloatList(f *testing.F) {
	for in := range parseFloatListGood {
		f.Add(in)
	}
	for _, in := range parseFloatListBad {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		vs, err := parseFloatList("rate", in)
		if err != nil {
			return
		}
		fields := 0
		if strings.TrimSpace(in) != "" {
			fields = strings.Count(in, ",") + 1
		}
		if len(vs) != fields {
			t.Fatalf("parseFloatList(%q) = %v: %d values for %d fields", in, vs, len(vs), fields)
		}
		printed := make([]string, len(vs))
		for i, v := range vs {
			printed[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		back, err := parseFloatList("rate", strings.Join(printed, ","))
		if err != nil || len(back) != len(vs) {
			t.Fatalf("parseFloatList(%q) = %v, but its form %q parses to %v, %v", in, vs, printed, back, err)
		}
		for i, v := range vs {
			if w := back[i]; math.Float64bits(w) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(w)) {
				t.Fatalf("parseFloatList(%q)[%d] = %v, parsed back from %q as %v", in, i, v, printed[i], w)
			}
		}
	})
}

// TestFidelity: -smoke and -full pick a preset, and both at once is an
// error rather than smoke cycle budgets over a full-fidelity topology.
func TestFidelity(t *testing.T) {
	for _, c := range []struct {
		smoke, full bool
		want        string
	}{
		{false, false, sim.FidelityFast},
		{true, false, sim.FidelitySmoke},
		{false, true, sim.FidelityFull},
	} {
		if got, err := fidelity(c.smoke, c.full); err != nil || got != c.want {
			t.Errorf("fidelity(smoke=%v, full=%v) = %q, %v; want %q", c.smoke, c.full, got, err, c.want)
		}
	}
	if got, err := fidelity(true, true); err == nil {
		t.Errorf("fidelity(smoke, full) = %q, want an error", got)
	}
}
