package main

import (
	"io"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name         string
		base, change []float64
		bound        float64
		lowerBetter  bool
		want         string
	}{
		{"same runs", steady, steady, 0.1, true, unchanged},
		{"small slowdown within bound", steady, scale(steady, 1.05), 0.1, true, unchanged},
		{"slowdown past bound", steady, scale(steady, 1.2), 0.1, true, worse},
		{"speedup won every pair", steady, scale(steady, 0.9), 0.1, true, improved},
		{"speedup with too few pairs", steady[:9], scale(steady[:9], 0.9), 0.1, true, unchanged},
		{"throughput drop", steady, scale(steady, 0.8), 0.1, false, worse},
		{"throughput gain", steady, scale(steady, 1.1), 0.1, false, improved},
		{"spread wider than the bound", []float64{1, 2, 1, 2, 1, 2}, []float64{1, 2, 1, 2, 1, 2}, 0.1, true, unresolved},
		{"wide spread but every change run better", []float64{2, 4, 2, 4}, []float64{1, 1.5, 1, 1.5}, 0.1, true, unchanged},
		{"one run a side", []float64{1}, []float64{1}, 0.1, true, unresolved},
	} {
		if got := compare(c.base, c.change, c.bound, c.lowerBetter); got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.verdict, c.want, got)
		}
	}
}

// A gain needs wins in nine of ten pairs, not just a better median.
func TestCompareGainNeedsPairWins(t *testing.T) {
	base := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	change := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1.1, 1.1}
	c := compare(base, change, 0.25, true)
	if c.wins != 8 || c.pairs != 10 || c.verdict != unchanged {
		t.Errorf("got %d/%d wins, verdict %s; want 8/10, %s", c.wins, c.pairs, c.verdict, unchanged)
	}
}

// A change whose runs fail ops is worse however fast it is, and no gain
// is claimed over a base that had an incorrect run.
func TestCompareCountsFailures(t *testing.T) {
	for _, c := range []struct {
		name         string
		verdict      string
		base, change health
		want         string
	}{
		{"both correct", improved, health{}, health{}, improved},
		{"change failed ops", improved, health{}, health{incorrect: 1, failed: 2}, worse},
		{"change incorrect without failed ops", unchanged, health{}, health{incorrect: 1}, worse},
		{"base incorrect", improved, health{incorrect: 1, failed: 1}, health{}, unresolved},
		{"base incorrect, no gain claimed", unchanged, health{incorrect: 1}, health{}, unchanged},
	} {
		if got := judge(c.verdict, c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	runs := func(scale float64, failed int) []record {
		var recs []record
		for i := 0; i < 10; i++ {
			recs = append(recs, record{
				Workload: "synth", Seed: int64(i), Correct: failed == 0, Attempted: 40, Failed: failed,
				Metrics: map[string]metricValue{"op_p50_s": {Value: scale * (1 + 0.001*float64(i%3)), Unit: "s"}},
			})
		}
		return recs
	}
	bounds := []bound{{Name: "op_p50_s", Better: "lower", Bound: 0.25}}
	if got := healthOf(runs(1, 3), "synth"); got != (health{incorrect: 10, failed: 30}) {
		t.Errorf("health %+v, want 10 incorrect runs and 30 failed ops", got)
	}
	if got := healthOf(runs(1, 3), "matrix"); got != (health{}) {
		t.Errorf("health of another workload %+v, want none", got)
	}
	if s := printComparison(io.Discard, bounds, runs(1, 0), runs(0.5, 0)); s != 0 {
		t.Errorf("faster correct change: status %d, want 0", s)
	}
	if s := printComparison(io.Discard, bounds, runs(1, 0), runs(0.5, 1)); s != 1 {
		t.Errorf("faster change with failed ops: status %d, want 1", s)
	}
}
