package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json lists exactly the workloads and metrics the benchmark
// reports, within the limits its readers enforce.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	var sp struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, want %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(sp.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(sp.EndToEnd), len(endToEndMetrics))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range sp.EndToEnd {
		want := endToEndMetrics[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end-to-end %d: %+v, want %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}

	if len(sp.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(sp.PerLayer), len(perLayerMetrics))
	}
	for i, m := range sp.PerLayer {
		if m != perLayerMetrics[i] {
			t.Errorf("per-layer %d: %+v, want %+v", i, m, perLayerMetrics[i])
		}
	}

	var all []string
	for _, w := range sp.Workloads {
		all = append(all, w.Name)
	}
	for _, m := range sp.EndToEnd {
		all = append(all, m.Name)
	}
	for _, m := range sp.PerLayer {
		all = append(all, m.Name)
	}
	seen := map[string]bool{}
	for _, n := range all {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, m := range append(append([]metricSpec{}, endToEndMetrics...), perLayerMetrics...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: malformed unit %q", m.Name, m.Unit)
		}
	}
}
