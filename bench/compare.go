package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// bound is an end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory, the repository root.
func readBounds() ([]bound, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s.EndToEnd, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// comparison summarizes one (workload, metric) pair across the base and
// change runs.
type comparison struct {
	base, change [3]float64 // first quartile, median, third quartile
	wins, pairs  int
	verdict      string
}

// compare applies the benchmark's rules to base and change runs of one
// metric. Runs pair up in order (base i with change i). A change is
// worse when its median is worse than the base median by more than the
// bound. Where either side's quartile spread, as a share of the base
// median, is wider than the bound, the pair is unresolved unless every
// change run beats every base run. A gain needs at least 10 pairs, wins
// in at least 9 of 10 of them, and a median gap wider than the base's
// quartile spread.
func compare(base, change []float64, bound float64, lowerBetter bool) comparison {
	var c comparison
	if len(base) < 2 || len(change) < 2 {
		c.verdict = unresolved
		return c
	}
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.change[0], c.change[1], c.change[2] = quartiles(change)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	for i := 0; i < len(base) && i < len(change); i++ {
		c.pairs++
		if better(change[i], base[i]) {
			c.wins++
		}
	}
	allBetter := true
	for _, b := range change {
		for _, a := range base {
			if !better(b, a) {
				allBetter = false
			}
		}
	}
	ref := math.Abs(c.base[1])
	baseIQR := c.base[2] - c.base[0]
	spread := math.Max(baseIQR, c.change[2]-c.change[0]) / ref
	loss := (c.change[1] - c.base[1]) / ref
	if !lowerBetter {
		loss = -loss
	}
	switch {
	case spread > bound && !allBetter:
		c.verdict = unresolved
	case loss > bound:
		c.verdict = worse
	case c.pairs >= 10 && 10*c.wins >= 9*c.pairs && better(c.change[1], c.base[1]) &&
		math.Abs(c.change[1]-c.base[1]) > baseIQR:
		c.verdict = improved
	default:
		c.verdict = unchanged
	}
	return c
}

// health counts one workload's incorrect runs and failed ops in a
// results file, traced runs included.
type health struct{ incorrect, failed int }

func healthOf(recs []record, workload string) health {
	var h health
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		if !r.Correct {
			h.incorrect++
		}
		h.failed += r.Failed
	}
	return h
}

// judge folds the runs' correctness into a timing verdict: a change
// with any incorrect run or failed op is worse, whatever its timings,
// and no gain is claimed over a base that had an incorrect run.
func judge(verdict string, base, change health) string {
	switch {
	case change.incorrect > 0 || change.failed > 0:
		return worse
	case verdict == improved && base.incorrect > 0:
		return unresolved
	}
	return verdict
}

// compareMain compares two results files run by run:
//
//	bench compare BASE.json CHANGE.json
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CHANGE.json")
		return 2
	}
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	base, err := readRecords(args[0])
	if err == nil {
		var change []record
		change, err = readRecords(args[1])
		if err == nil {
			return printComparison(os.Stdout, bounds, base, change)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}

// printComparison writes every (workload, end-to-end metric) verdict
// and returns 1 if any is worse or a simulated statistic differs.
func printComparison(out io.Writer, bounds []bound, base, change []record) int {
	values := func(recs []record, workload, metric string) []float64 {
		var v []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				v = append(v, m.Value)
			}
		}
		return v
	}
	status := 0
	fmt.Fprintf(out, "%-8s %-14s %10s %23s %10s %23s %7s  %s\n",
		"workload", "metric", "base p50", "base q1..q3", "change p50", "change q1..q3", "wins", "verdict")
	for _, w := range workloads {
		hb, hc := healthOf(base, w.name), healthOf(change, w.name)
		if hb != (health{}) || hc != (health{}) {
			fmt.Fprintf(out, "%-8s incorrect runs %d, failed ops %d (base: %d, %d)\n",
				w.name, hc.incorrect, hc.failed, hb.incorrect, hb.failed)
		}
		for _, m := range bounds {
			c := compare(values(base, w.name, m.Name), values(change, w.name, m.Name), m.Bound, m.Better == "lower")
			c.verdict = judge(c.verdict, hb, hc)
			fmt.Fprintf(out, "%-8s %-14s %10.4g %11.4g..%-10.4g %10.4g %11.4g..%-10.4g %3d/%-3d  %s\n",
				w.name, m.Name, c.base[1], c.base[0], c.base[2], c.change[1], c.change[0], c.change[2], c.wins, c.pairs, c.verdict)
			if c.verdict == worse {
				status = 1
			}
		}
	}
	// Simulated statistics must repeat exactly between commits at the
	// same seed.
	bySeed := func(recs []record, workload, metric string) map[int64]float64 {
		v := map[int64]float64{}
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace {
				v[r.Seed] = m.Value
			}
		}
		return v
	}
	for _, w := range workloads {
		for _, name := range []string{"sim.events_per_cell", "sim.events_per_op"} {
			a, b := bySeed(base, w.name, name), bySeed(change, w.name, name)
			for seed, va := range a {
				if vb, ok := b[seed]; ok && va != vb {
					fmt.Fprintf(out, "%-8s %s differs at seed %d: %g vs %g\n", w.name, name, seed, va, vb)
					status = 1
				}
			}
		}
	}
	return status
}
