// Command netbench regenerates the paper's tables and figures, and runs
// scenario matrices over the pluggable workload registry. Each
// experiment prints the same rows/series the paper reports; absolute
// numbers differ from the authors' gem5 testbed but the comparative
// shapes hold (Table II's paper_* columns, netbench -exp table2, set
// the published values beside the reproduced ones).
//
// Usage:
//
//	netbench -exp table2            # one experiment
//	netbench -exp all -full         # everything at full fidelity
//	netbench -matrix                # {pattern x rate x topology} matrix
//	netbench -matrix -grid 4x4 -topos mesh -patterns uniform,tornado \
//	    -rates 0.02,0.10 -smoke     # CI-scale smoke
//	netbench -matrix -energy        # measured-energy columns per cell
//	netbench -matrix -topos ns -energy-weight 2  # energy-aware synthesis
//	netbench -matrix -faults klinks:k=2:at=400   # fault axis (plus the
//	    fault-free baseline); robustness columns in the summary and CSV
//	netbench -matrix -topos ns -robust-weight 50 # fragility-priced synthesis
//	netbench -matrix -full -topos Kite-Medium -patterns uniform,memory \
//	    -rates 0.02,0.06,0.10,0.14       # an expert baseline (NDBT routing)
//	netbench -matrix -store .netsmith-store     # cached + resumable
//	netbench -matrix -store S -shard 0/2        # this machine's half
//	netbench -pareto                            # energy-weight Pareto frontier
//	netbench -pareto -energy-weights 0,1,2 -robust-weights 0,50 \
//	    -store S -csv out                       # cached sweep + frontier.csv/.json
//	netbench -exp fig6 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Experiments: fig1, table2, fig5, fig6, fig7, fig8, fig9, fig10,
// fig11, all. Matrix topologies are mesh, ns and the grid's expert
// baselines. Matrix patterns are the traffic-registry names (see
// -patterns default for the full set); parameterized forms use
// "name:key=val:key=val", e.g. hotspot:weight=0.7:hot=0+19. Matrix
// output (stdout summary, -csv dir matrix.csv/matrix.json) is
// bit-identical across reruns and GOMAXPROCS settings.
//
// -matrix and -pareto run, in-process, the job netsmith serve accepts
// at /v1/jobs, under the server's defaults, input checks and caps.
//
// With -store, every matrix cell is content-addressed in the given
// directory: a killed run resumes where it stopped, and a re-run is
// served from cache. -shard i/n restricts simulation to a
// deterministic 1/n of the cells (requires -store); once all n shards
// have run against a shared store, the last one (or any re-run)
// assembles CSV/JSON byte-identical to an unsharded run.
//
// -pareto sweeps an (energy, robust) synthesis-weight grid instead of a
// scenario matrix: one topology synthesized per grid point, measured
// under uniform traffic, dominated points pruned, the surviving
// frontier printed with fleet-level energy accounting (and written to
// -csv dir frontier.csv/frontier.json, byte-identical across reruns).
// -store caches synthesis, measurement and the assembled frontier;
// -shard i/n computes a deterministic 1/n of the sweep points.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"netsmith/internal/exp"
	"netsmith/internal/serve"
	"netsmith/internal/sim"
	"netsmith/internal/store"
)

// defaultMatrixPatterns lists every registry pattern, with default
// parameters (trace replay is -trace, not a registry pattern).
const defaultMatrixPatterns = "uniform,shuffle,memory,transpose,bitcomp,bitrev,tornado,hotspot,bursty"

func main() {
	os.Exit(realMain())
}

// jobFlags holds the flags of a -matrix or -pareto job.
type jobFlags struct {
	grid, class, topos, patterns, rates, trace, faults string
	energyWeights, robustWeights                       string
	store, shard, csv                                  string
	smoke, full, energy                                bool
	energyWeight, robustWeight                         float64
	seed                                               int64
	population, generations                            int
}

// realMain holds the actual entry point so profile-writing defers run
// before the process exits (os.Exit skips defers).
func realMain() int {
	var jf jobFlags
	expName := flag.String("exp", "all", "experiment to run (fig1, table2, fig5..fig11, all)")
	flag.BoolVar(&jf.full, "full", false, "full fidelity (slower, tighter numbers)")
	flag.StringVar(&jf.csv, "csv", "", "also write <dir>/<experiment>.csv data files")
	matrix := flag.Bool("matrix", false, "run the scenario matrix instead of figure experiments")
	pareto := flag.Bool("pareto", false, "run a Pareto-frontier sweep over the synthesis weight grid instead of figure experiments")
	flag.StringVar(&jf.energyWeights, "energy-weights", "", "pareto: comma-separated energy-weight grid (default 0,0.5,1,2)")
	flag.StringVar(&jf.robustWeights, "robust-weights", "", "pareto: comma-separated robust-weight grid (default 0)")
	flag.StringVar(&jf.grid, "grid", "4x5", "matrix: interposer grid RxC")
	flag.StringVar(&jf.class, "class", "medium", "matrix: link-length class of the synthesized topology")
	flag.StringVar(&jf.topos, "topos", "mesh,ns", "matrix: comma-separated topologies (mesh, ns, or an expert baseline such as Kite-Medium)")
	flag.StringVar(&jf.patterns, "patterns", defaultMatrixPatterns, "matrix: comma-separated registry patterns (name or name:key=val:...)")
	flag.StringVar(&jf.rates, "rates", "0.02,0.08,0.14", "matrix: comma-separated offered rates (packets/node/cycle)")
	flag.StringVar(&jf.trace, "trace", "", "matrix: trace file; appends the trace-replay pattern")
	flag.BoolVar(&jf.smoke, "smoke", false, "matrix: minimal cycle budgets (CI smoke)")
	flag.Int64Var(&jf.seed, "seed", 42, "matrix: base seed")
	flag.BoolVar(&jf.energy, "energy", false, "matrix: collect measured energy (activity counters; fills the avg_power_mw / energy_per_flit_pj columns)")
	flag.Float64Var(&jf.energyWeight, "energy-weight", 0, "matrix: weight of the energy-proxy term in the ns topology's synthesis objective")
	flag.Float64Var(&jf.robustWeight, "robust-weight", 0, "matrix: weight of the fragility term in the ns topology's synthesis objective (prices single-link-failure exposure)")
	flag.StringVar(&jf.faults, "faults", "", "matrix: comma-separated fault schedules added as a matrix axis (name or name:key=val:..., e.g. klinks:k=2:at=400; a fault-free cell set always runs)")
	flag.StringVar(&jf.store, "store", "", "matrix: content-addressed result store directory (cells cached; runs resume)")
	flag.StringVar(&jf.shard, "shard", "", "matrix: compute only shard i/n of the cells (e.g. 0/2; requires -store)")
	flag.IntVar(&jf.population, "population", 0, "matrix: ns synthesis population size (0 = restart annealer; >= 2 enables population mode)")
	flag.IntVar(&jf.generations, "generations", 0, "matrix: ns synthesis evolution rounds (default 8 when -population is set)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *matrix {
		if err := runMatrix(&jf); err != nil {
			fmt.Fprintf(os.Stderr, "matrix: %v\n", err)
			return 1
		}
		return 0
	}
	if *pareto {
		if err := runPareto(&jf); err != nil {
			fmt.Fprintf(os.Stderr, "pareto: %v\n", err)
			return 1
		}
		return 0
	}

	s := exp.NewSuite(!jf.full)
	w := os.Stdout
	csvOut := func(name string, write func(io.Writer) error) error {
		if jf.csv == "" {
			return nil
		}
		if err := os.MkdirAll(jf.csv, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(jf.csv, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return write(f)
	}

	runners := []struct {
		name string
		run  func() error
	}{
		{"table2", func() error {
			rows, err := s.Table2()
			if err != nil {
				return err
			}
			exp.PrintTable2(w, rows)
			return csvOut("table2", func(f io.Writer) error { return exp.Table2CSV(f, rows) })
		}},
		{"fig1", func() error {
			pts, err := s.Fig1()
			if err != nil {
				return err
			}
			exp.PrintFig1(w, pts)
			return csvOut("fig1", func(f io.Writer) error { return exp.Fig1CSV(f, pts) })
		}},
		{"fig5", func() error {
			traces, err := s.Fig5()
			if err != nil {
				return err
			}
			exp.PrintFig5(w, traces)
			return csvOut("fig5", func(f io.Writer) error { return exp.Fig5CSV(f, traces) })
		}},
		{"fig6", func() error {
			curves, err := s.Fig6()
			if err != nil {
				return err
			}
			exp.PrintFig6(w, curves)
			return csvOut("fig6", func(f io.Writer) error { return exp.Fig6CSV(f, curves) })
		}},
		{"fig7", func() error {
			rows, err := s.Fig7()
			if err != nil {
				return err
			}
			exp.PrintFig7(w, rows)
			return csvOut("fig7", func(f io.Writer) error { return exp.Fig7CSV(f, rows) })
		}},
		{"fig8", func() error {
			rows, err := s.Fig8()
			if err != nil {
				return err
			}
			exp.PrintFig8(w, rows)
			return csvOut("fig8", func(f io.Writer) error { return exp.Fig8CSV(f, rows) })
		}},
		{"fig9", func() error {
			rows, err := s.Fig9()
			if err != nil {
				return err
			}
			exp.PrintFig9(w, rows)
			return csvOut("fig9", func(f io.Writer) error { return exp.Fig9CSV(f, rows) })
		}},
		{"fig10", func() error {
			curves, err := s.Fig10()
			if err != nil {
				return err
			}
			exp.PrintFig10(w, curves)
			return csvOut("fig10", func(f io.Writer) error { return exp.Fig10CSV(f, curves) })
		}},
		{"fig11", func() error {
			curves, err := s.Fig11()
			if err != nil {
				return err
			}
			exp.PrintFig11(w, curves)
			return csvOut("fig11", func(f io.Writer) error { return exp.Fig11CSV(f, curves) })
		}},
	}

	matched := false
	for _, r := range runners {
		if *expName != "all" && *expName != r.name {
			continue
		}
		matched = true
		start := time.Now()
		if err := r.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			return 1
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expName)
		return 2
	}
	return 0
}

// fidelity maps -smoke and -full onto a fidelity preset. Both at once
// is an error: the preset sets the cycle budgets, and full fidelity
// also sets the ns synthesis budget, so a mix of the two would share no
// cells with either.
func fidelity(smoke, full bool) (string, error) {
	switch {
	case smoke && full:
		return "", errors.New("-smoke and -full are mutually exclusive")
	case smoke:
		return sim.FidelitySmoke, nil
	case full:
		return sim.FidelityFull, nil
	}
	return sim.FidelityFast, nil
}

// parseFloatList parses a comma-separated float list; an empty string
// is nil (the job defaults it). The job validates the values.
func parseFloatList(name, args string) ([]float64, error) {
	if strings.TrimSpace(args) == "" {
		return nil, nil
	}
	var vs []float64
	for _, f := range strings.Split(args, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", name, f)
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// prepare resolves what -matrix and -pareto share: the fidelity preset,
// the rate grid, the shard and the store.
func (f *jobFlags) prepare() (fid string, rates []float64, sh sim.Shard, st *store.Store, err error) {
	if fid, err = fidelity(f.smoke, f.full); err != nil {
		return
	}
	if rates, err = parseFloatList("rate", f.rates); err != nil {
		return
	}
	if sh, err = sim.ParseShard(f.shard); err != nil {
		return
	}
	if f.store != "" {
		st, err = store.Open(f.store)
	}
	return
}

// writeOutputs writes v as <dir>/<name>.csv and <dir>/<name>.json; an
// empty dir writes nothing.
func writeOutputs[T any](dir, name string, v T, csv, js func(io.Writer, T) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for ext, write := range map[string]func(io.Writer, T) error{".csv": csv, ".json": js} {
		out, err := os.Create(filepath.Join(dir, name+ext))
		if err != nil {
			return err
		}
		err = write(out, v)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runMatrix runs the scenario matrix the flags describe as a matrix job
// (serve.ExecuteMatrix): its plan builds the topologies, patterns,
// fault axis and cycle budgets.
func runMatrix(f *jobFlags) error {
	fid, rates, sh, st, err := f.prepare()
	if err != nil {
		return err
	}
	job := serve.MatrixRequest{
		Grid: f.grid, Class: f.class,
		Topos: strings.Split(f.topos, ","), Patterns: strings.Split(f.patterns, ","),
		Rates: rates, Fidelity: fid, Seed: &f.seed,
		Energy: f.energy, EnergyWeight: f.energyWeight, RobustWeight: f.robustWeight,
		SynthPopulation: f.population, SynthGenerations: f.generations,
		Trace: f.trace,
	}
	if strings.TrimSpace(f.faults) != "" {
		job.Faults = strings.Split(f.faults, ",")
	}
	start := time.Now()
	out, _, err := serve.ExecuteMatrix(context.Background(), st, job, sh, nil)
	var inc *sim.IncompleteError
	if errors.As(err, &inc) {
		// Not a failure: this shard's cells are persisted; the matrix
		// assembles once the remaining shards run against the store.
		fmt.Printf("[shard %s done: %d computed, %d cached of %d cells; %d pending — run the other shards against %s, then any re-run emits the merged matrix]\n",
			inc.Shard, inc.Computed, inc.CacheHits, inc.Cells, inc.Missing, f.store)
		return nil
	}
	if err != nil {
		return err
	}
	res := out.Matrix
	exp.PrintMatrix(os.Stdout, res)
	nT, nP := len(job.Topos), len(job.Patterns)
	if job.Trace != "" {
		nP++
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if len(job.Faults) > 0 {
		fmt.Printf("[matrix: %d topologies x %d patterns x %d faults x %d rates in %v]\n",
			nT, nP, len(res.Curves)/(nT*nP), len(res.Rates), elapsed)
	} else {
		fmt.Printf("[matrix: %d topologies x %d patterns x %d rates in %v]\n",
			nT, nP, len(res.Rates), elapsed)
	}
	if st != nil {
		fmt.Printf("[store %s: %d cells simulated, %d from cache]\n",
			f.store, res.Stats.Computed, res.Stats.CacheHits)
		if res.Stats.StoreErrors > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d cells could not be persisted to %s (results above are complete; those cells will recompute on resume)\n",
				res.Stats.StoreErrors, f.store)
		}
	}
	return writeOutputs(f.csv, "matrix", res, exp.MatrixCSV, exp.MatrixJSON)
}

// runPareto sweeps the synthesis weight grid as a pareto job
// (serve.ExecutePareto) into a dominated-point-free frontier with
// fleet-level energy accounting.
func runPareto(f *jobFlags) error {
	fid, rates, sh, st, err := f.prepare()
	if err != nil {
		return err
	}
	ews, err := parseFloatList("energy weight", f.energyWeights)
	if err != nil {
		return err
	}
	rws, err := parseFloatList("robust weight", f.robustWeights)
	if err != nil {
		return err
	}
	start := time.Now()
	out, _, err := serve.ExecutePareto(context.Background(), st, serve.ParetoRequest{
		Grid: f.grid, Class: f.class,
		EnergyWeights: ews, RobustWeights: rws,
		Rates: rates, Fidelity: fid, Seed: &f.seed,
		SynthPopulation: f.population, SynthGenerations: f.generations,
	}, sh, nil)
	var inc *exp.ParetoIncompleteError
	if errors.As(err, &inc) {
		// Not a failure: this shard's points are persisted; the frontier
		// assembles once the remaining shards run against the store.
		fmt.Printf("[pareto shard %s done: %d of %d points owned (%d synthesized, %d cached; %d cells, %d computed); %d pending — run the other shards against %s, then an unsharded re-run emits the frontier]\n",
			inc.Shard, inc.Owned, inc.Points, inc.Synthesized, inc.SynthCached, inc.Cells, inc.CellsComputed, inc.Pending, f.store)
		return nil
	}
	if err != nil {
		return err
	}
	fr := out.Frontier
	exp.PrintFrontier(os.Stdout, fr)
	fmt.Printf("[pareto: %d points (%d energy x %d robust weights) in %v]\n",
		fr.Swept, len(fr.EnergyWeights), len(fr.RobustWeights), time.Since(start).Round(time.Millisecond))
	if st != nil {
		if fr.Stats.FrontierCached {
			fmt.Printf("[store %s: frontier served from cache; 0 points synthesized, 0 cells simulated]\n", f.store)
		} else {
			fmt.Printf("[store %s: %d points synthesized, %d from cache; %d cells simulated, %d from cache]\n",
				f.store, fr.Stats.Synthesized, fr.Stats.SynthCached, fr.Stats.CellsComputed, fr.Stats.CellsCached)
			if fr.Stats.StoreErrors > 0 {
				fmt.Fprintf(os.Stderr, "warning: %d cells could not be persisted to %s (the frontier above is complete; those cells recompute on re-run)\n",
					fr.Stats.StoreErrors, f.store)
			}
		}
	}
	return writeOutputs(f.csv, "frontier", fr, exp.FrontierCSV, exp.FrontierJSON)
}
