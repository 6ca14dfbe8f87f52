package main

import (
	"reflect"
	"testing"

	"netsmith/internal/sim"
)

// TestParseFloatList: the flag lists only parse; the job validates the
// values, so zero, negative and non-finite entries get through here.
func TestParseFloatList(t *testing.T) {
	for in, want := range map[string][]float64{
		"":                nil,
		"   ":             nil,
		"0.02":            {0.02},
		" 0.02 , 0.1 ,1 ": {0.02, 0.1, 1},
		"0,-1":            {0, -1},
	} {
		got, err := parseFloatList("rate", in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseFloatList(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"abc", "0.1,abc", "0.1,", ",0.1", "0.1 0.2", "0.1,,0.2"} {
		if got, err := parseFloatList("rate", in); err == nil {
			t.Errorf("parseFloatList(%q) = %v, want an error", in, got)
		}
	}
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
