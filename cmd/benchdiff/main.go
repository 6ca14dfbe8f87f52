// Command benchdiff gates CI on benchmark regressions: it parses `go
// test -bench` output (the bench-smoke.txt artifact) and compares every
// benchmark against a committed baseline, failing when ns/op regresses
// beyond a threshold (default +25%) or allocs/op regresses at all
// (allocation counts are deterministic, so any increase is a real
// regression).
//
// Usage:
//
//	benchdiff -baseline BENCH_BASELINE.json -bench bench-smoke.txt
//	benchdiff -baseline BENCH_BASELINE.json -bench bench-smoke.txt -update
//
// -update rewrites the baseline from the bench output (run locally after
// an intentional performance change and commit the result). Benchmarks
// present in the baseline but missing from the output fail the gate (so
// coverage cannot silently disappear) unless -allow-missing is set;
// benchmarks missing from the baseline are reported but do not fail.
//
// The baseline records the machine it was measured on: the bench
// output's goos, goarch and cpu header lines, and the Go version. That
// version is benchdiff's own, which `go run` builds with the toolchain
// that ran the benchmarks. A compare prints both machines and warns,
// without failing, when they differ: ns/op is then not like for like.
//
// Exit status: 0 clean, 1 regression, 2 usage or parse error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// BaselineEntry is one benchmark's recorded performance.
type BaselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Machine is where a bench output was recorded.
type Machine struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
}

func (m *Machine) String() string {
	if m == nil {
		return "not recorded"
	}
	return fmt.Sprintf("%s/%s, %s, %s", m.GOOS, m.GOARCH, m.CPU, m.Go)
}

// Baseline is the committed BENCH_BASELINE.json shape.
type Baseline struct {
	Note       string                   `json:"note,omitempty"`
	Machine    *Machine                 `json:"machine,omitempty"`
	Benchmarks map[string]BaselineEntry `json:"benchmarks"`
}

// parseBench extracts name -> (ns/op, allocs/op) from go test -bench
// output, and the machine from its goos/goarch/cpu header lines (the
// first of each, for concatenated runs); the caller fills in the Go
// version. The trailing -N GOMAXPROCS suffix is stripped so baselines
// port across machines; extra ReportMetric pairs are ignored. Duplicate
// lines for one benchmark (e.g. -count runs, or several concatenated
// outputs) merge by the median ns/op, which one noisy run cannot move
// far, and the minimum allocs/op: garbage collection only ever adds
// allocations, so the minimum is the benchmark's own count.
func parseBench(r io.Reader) (Baseline, error) {
	out := Baseline{Machine: &Machine{}, Benchmarks: map[string]BaselineEntry{}}
	ns := map[string][]float64{}
	header := map[string]*string{"goos:": &out.Machine.GOOS, "goarch:": &out.Machine.GOARCH, "cpu:": &out.Machine.CPU}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 {
			if v, ok := header[fields[0]]; ok && *v == "" {
				*v = strings.Join(fields[1:], " ")
				continue
			}
		}
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		e := BaselineEntry{NsPerOp: -1, AllocsPerOp: -1}
		// fields[1] is the iteration count; then (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			}
		}
		if e.NsPerOp < 0 {
			continue
		}
		ns[name] = append(ns[name], e.NsPerOp)
		// allocs/op: the minimum over the lines that report it.
		if prev, ok := out.Benchmarks[name]; ok && prev.AllocsPerOp >= 0 && (e.AllocsPerOp < 0 || prev.AllocsPerOp < e.AllocsPerOp) {
			e.AllocsPerOp = prev.AllocsPerOp
		}
		e.NsPerOp = median(ns[name])
		out.Benchmarks[name] = e
	}
	if err := sc.Err(); err != nil {
		return Baseline{}, err
	}
	if len(out.Benchmarks) == 0 {
		return Baseline{}, errors.New("no benchmark lines found")
	}
	return out, nil
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count. It sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

func writeBaseline(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare prints the run against the baseline, one line per baseline
// benchmark, and reports whether the gate fails.
func compare(w io.Writer, base, run Baseline, nsThreshold float64, allowMissing bool) bool {
	fmt.Fprintf(w, "baseline machine: %s\n", base.Machine)
	fmt.Fprintf(w, "this run machine: %s\n", run.Machine)
	if base.Machine == nil || *base.Machine != *run.Machine {
		fmt.Fprintln(w, "benchdiff: warning: the machines differ, so ns/op is not like for like (allocs/op still is)")
	}
	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := run.Benchmarks[name]
		if !ok {
			if allowMissing {
				fmt.Fprintf(w, "SKIP  %-32s not in bench output\n", name)
				continue
			}
			fmt.Fprintf(w, "FAIL  %-32s missing from bench output (use -allow-missing to waive)\n", name)
			failed = true
			continue
		}
		status := "ok  "
		var reasons []string
		if want.NsPerOp > 0 && got.NsPerOp > want.NsPerOp*(1+nsThreshold) {
			reasons = append(reasons, fmt.Sprintf("ns/op +%.0f%% > +%.0f%% allowed",
				100*(got.NsPerOp/want.NsPerOp-1), 100*nsThreshold))
		}
		if want.AllocsPerOp >= 0 && got.AllocsPerOp > want.AllocsPerOp {
			reasons = append(reasons, fmt.Sprintf("allocs/op %d > %d", got.AllocsPerOp, want.AllocsPerOp))
		}
		if len(reasons) > 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(w, "%s  %-32s ns/op %12.0f -> %12.0f (%+.1f%%)  allocs/op %6d -> %6d  %s\n",
			status, name, want.NsPerOp, got.NsPerOp, 100*(got.NsPerOp/want.NsPerOp-1),
			want.AllocsPerOp, got.AllocsPerOp, strings.Join(reasons, "; "))
	}
	for name := range run.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "NEW   %-32s not in baseline (add with -update)\n", name)
		}
	}
	return failed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline file")
	benchPath := flag.String("bench", "bench-smoke.txt", "go test -bench output to check")
	nsThreshold := flag.Float64("ns-threshold", 0.25, "allowed fractional ns/op regression (0.25 = +25%)")
	update := flag.Bool("update", false, "rewrite the baseline from the bench output")
	allowMissing := flag.Bool("allow-missing", false, "do not fail when a baseline benchmark is absent from the output")
	flag.Parse()

	f, err := os.Open(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	run, err := parseBench(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *benchPath, err)
		os.Exit(2)
	}
	run.Machine.Go = runtime.Version()

	if *update {
		run.Note = fmt.Sprintf("Regenerate with: go run ./cmd/benchdiff -bench <bench output> -update. "+
			"Gate: ns/op > +%.0f%% or any allocs/op increase fails CI.", 100**nsThreshold)
		if err := writeBaseline(*baselinePath, run); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s (%d benchmarks, %s)\n", *baselinePath, len(run.Benchmarks), run.Machine)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v (run with -update to create it)\n", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if compare(os.Stdout, base, run, *nsThreshold, *allowMissing) {
		fmt.Println("benchdiff: performance regression vs baseline")
		os.Exit(1)
	}
	fmt.Println("benchdiff: all benchmarks within budget")
}
