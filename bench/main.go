// Command bench is netsmith's benchmark: four closed-loop workloads
// that each put most of their time in different layers of the
// repository — synthesis (synth), the simulation engine (matrix),
// full-system simulation (parsec) and the served job API (serve).
//
// Run it through bench/run.sh from the repository root, which builds it
// first:
//
//	bash bench/run.sh --workload synth --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh [--seed N] [--out DIR] [--runs N]   # every workload
//	bash bench/run.sh compare BASE.json CHANGE.json
//	bash bench/run.sh golden
//
// With --workload, one run measures that workload for --seconds and
// prints one line per metric, then a JSON result as its last line:
// end-to-end metrics from an untraced pass with --trace 0, per-layer
// metrics from a traced pass with --trace 1. Without --workload it
// runs every workload, untraced then traced, each in its own child
// process, and writes results.json plus one trace file per workload to
// --out. It exits non-zero if any output check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads are the benchmark's input mixes, in run order.
var workloads = []*workload{synthWorkload, matrixWorkload, parsecWorkload, serveWorkload}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "golden":
			return goldenMain()
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (synth, matrix, parsec or serve); default: all, each in a child process")
	seed := fs.Int64("seed", 1, "seed the op lists are generated from")
	seconds := fs.Int("seconds", 20, "how long a run measures")
	trace := fs.Int("trace", 0, "1: traced pass and per-layer metrics; 0: untraced pass and end-to-end metrics")
	out := fs.String("out", "", "directory for results.json and trace files (default: a new temporary directory when running every workload)")
	runs := fs.Int("runs", 1, "rounds of every workload (with no --workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: --seconds and --runs must be positive and --trace 0 or 1")
		return 2
	}
	if *name == "" {
		return suite(*seed, *seconds, *out, *runs)
	}
	w := workloadNamed(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	return runOne(w, *seed, *seconds, *trace == 1, *out)
}

// record is one run as results.json stores it.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Host      host                   `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host is the machine a run measured.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() host {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{CPU: cpu, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// runOne runs one workload once and prints its metrics; the last line
// of standard output is the JSON result.
func runOne(w *workload, seed int64, seconds int, traced bool, out string) int {
	ctx := context.Background()
	window := time.Duration(seconds) * time.Second
	var res *runResult
	var tr *tracer
	var err error
	if traced {
		res, tr, err = runTraced(ctx, w, seed, window)
	} else {
		res, err = runUntraced(ctx, w, seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(os.Stderr, "%s: context (unvalidated model, not gated): %s\n", w.name, n)
	}
	for i, e := range res.errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "bench: %s: ... %d more\n", w.name, len(res.errs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, e)
	}
	specs := endToEndMetrics
	if traced {
		specs = perLayerMetrics
	}
	line := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]json.RawMessage{}}
	for _, m := range specs {
		v := res.metrics[m.Name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0 // no successful sample; the run is already incorrect
			res.metrics[m.Name] = v
		}
		fmt.Printf("%s %s %.6g %s n=%d\n", w.name, m.Name, v.Value, v.Unit, v.N)
		b, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v.Value, v.Unit})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %s: %v\n", w.name, m.Name, err)
			return 1
		}
		line.Metrics[m.Name] = b
	}
	if out != "" {
		rec := record{
			Workload: w.name, Seed: seed, Trace: traced, Seconds: seconds, Host: thisHost(),
			Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics,
		}
		if err := appendRecord(filepath.Join(out, "results.json"), rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if tr != nil {
			if err := tr.write(filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.correct {
		return 1
	}
	return 0
}

// appendRecord adds one run to a results file (a JSON array), creating
// its directory if need be.
func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	recs, err := readRecords(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	recs = append(recs, rec)
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// suite runs every workload, untraced then traced, each in its own
// child process, one at a time.
func suite(seed int64, seconds int, out string, runs int) int {
	if out == "" {
		dir, err := os.MkdirTemp("", "netsmith-bench-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		out = dir
	} else if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for _, trace := range []string{"0", "1"} {
				cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed+int64(r)),
					"--seconds", fmt.Sprint(seconds), "--trace", trace, "--out", out)
				cmd.Stderr = os.Stderr
				b, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(b)), "\n")
				for _, l := range lines[:len(lines)-1] {
					fmt.Println(l)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s --trace %s: %v\n", w.name, trace, err)
					status = 1
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: results in %s\n", filepath.Join(out, "results.json"))
	return status
}
