package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchOutput is two concatenated go test -bench runs, the second on
// another CPU, with a ReportMetric pair, a benchmark without ns/op, a
// name whose dash suffix is not a proc count, noise lines, and
// benchmarks repeated an odd and an even number of times.
const benchOutput = `goos: linux
goarch: amd64
pkg: netsmith
cpu: Intel(R) Xeon(R) Processor
BenchmarkVCAssign-2   	      10	  29663214 ns/op	 1546665 B/op	    9998 allocs/op
BenchmarkFig8-2   	       1	 123 ns/op	         1.250 NS-large-geomean-speedup	  7 allocs/op
BenchmarkNoTiming-2   	      10	 55 MB/s
Benchmark-odd-name-x   	      10	 40 ns/op
PASS
ok  	netsmith	3.501s
goos: linux
goarch: amd64
cpu: AMD EPYC 7763 64-Core Processor
BenchmarkVCAssign-4   	      10	  31000000 ns/op	 1546000 B/op	    9990 allocs/op
BenchmarkVCAssign   	      10	  27000000 ns/op	 1546000 B/op	    9999 allocs/op
BenchmarkFullSystemBuild-2   	      10	  80000000 ns/op	20450000 B/op	  226755 allocs/op
BenchmarkFullSystemBuild-2   	      10	  70000000 ns/op	20450000 B/op	  226753 allocs/op
BenchmarkFullSystemBuild-2   	      10	 140000000 ns/op	20450000 B/op	  226754 allocs/op
BenchmarkFullSystemBuild-2   	      10	  76000000 ns/op	20450000 B/op	  226753 allocs/op
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := Baseline{
		Machine: &Machine{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor"},
		Benchmarks: map[string]BaselineEntry{
			// Duplicates merge by the median ns/op and the minimum
			// allocs/op; the -N suffix is stripped. Three lines: the
			// middle ns/op.
			"BenchmarkVCAssign": {NsPerOp: 29663214, AllocsPerOp: 9990},
			// Four lines: the mean of the two middle ns/op.
			"BenchmarkFullSystemBuild": {NsPerOp: 78000000, AllocsPerOp: 226753},
			// Metric pairs other than ns/op and allocs/op are skipped.
			"BenchmarkFig8": {NsPerOp: 123, AllocsPerOp: 7},
			// No allocs/op column: -1, which the gate never fails on.
			"Benchmark-odd-name-x": {NsPerOp: 40, AllocsPerOp: -1},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseBench:\n got %+v %+v\nwant %+v %+v", got.Machine, got.Benchmarks, want.Machine, want.Benchmarks)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("goos: linux\nPASS\n")); err == nil {
		t.Error("output without benchmark lines must be an error")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	run, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	run.Machine.Go = "go1.24.0"
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaseline(path, run); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Baseline
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, run) {
		t.Errorf("round trip changed the baseline: %+v vs %+v", back, run)
	}
}

func TestCompareWarnsOnOtherMachine(t *testing.T) {
	xeon := &Machine{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", Go: "go1.24.0"}
	epyc := &Machine{GOOS: "linux", GOARCH: "amd64", CPU: "AMD EPYC 7763 64-Core Processor", Go: "go1.24.0"}
	base := Baseline{Machine: xeon, Benchmarks: map[string]BaselineEntry{"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 3}}}
	for _, c := range []struct {
		name     string
		base     *Machine
		run      *Machine
		ns       float64
		allocs   int64
		warn     bool
		failGate bool
	}{
		{"same machine", xeon, xeon, 110, 3, false, false},
		{"other cpu", xeon, epyc, 110, 3, true, false},
		{"unrecorded baseline", nil, xeon, 110, 3, true, false},
		{"other cpu, slower", xeon, epyc, 200, 3, true, true},
		{"more allocs", xeon, xeon, 100, 4, false, true},
	} {
		var out strings.Builder
		base.Machine = c.base
		run := Baseline{Machine: c.run, Benchmarks: map[string]BaselineEntry{"BenchmarkA": {NsPerOp: c.ns, AllocsPerOp: c.allocs}}}
		failed := compare(&out, base, run, 0.25, false)
		if failed != c.failGate {
			t.Errorf("%s: gate failed %v, want %v\n%s", c.name, failed, c.failGate, out.String())
		}
		if warned := strings.Contains(out.String(), "warning: the machines differ"); warned != c.warn {
			t.Errorf("%s: warned %v, want %v\n%s", c.name, warned, c.warn, out.String())
		}
		if !strings.Contains(out.String(), "this run machine: "+c.run.String()) {
			t.Errorf("%s: run machine not printed\n%s", c.name, out.String())
		}
	}
}
