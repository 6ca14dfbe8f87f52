// Command netbench regenerates the paper's tables and figures, and runs
// scenario matrices over the pluggable workload registry. Each
// experiment prints the same rows/series the paper reports; absolute
// numbers differ from the authors' gem5 testbed but the comparative
// shapes hold (see EXPERIMENTS.md).
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
//	netbench -matrix -store .netsmith-store     # cached + resumable
//	netbench -matrix -store S -shard 0/2        # this machine's half
//	netbench -pareto                            # energy-weight Pareto frontier
//	netbench -pareto -energy-weights 0,1,2 -robust-weights 0,50 \
//	    -store S -csv out                       # cached sweep + frontier.csv/.json
//	netbench -exp fig6 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Experiments: fig1, table2, fig5, fig6, fig7, fig8, fig9, fig10,
// fig11, all. Matrix patterns are the traffic-registry names (see
// -patterns default for the full set); parameterized forms use
// "name:key=val:key=val", e.g. hotspot:weight=0.7:hot=0+19. Matrix
// output (stdout summary, -csv dir matrix.csv/matrix.json) is
// bit-identical across reruns and GOMAXPROCS settings.
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
	"bytes"
	"crypto/sha256"
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
	"netsmith/internal/expert"
	"netsmith/internal/fault"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
	"netsmith/internal/traffic"
)

// defaultMatrixPatterns lists every registry pattern constructible
// without required parameters ("trace" needs -trace).
const defaultMatrixPatterns = "uniform,shuffle,memory,transpose,bitcomp,bitrev,tornado,hotspot,bursty"

func main() {
	os.Exit(realMain())
}

// realMain holds the actual entry point so profile-writing defers run
// before the process exits (os.Exit skips defers).
func realMain() int {
	expName := flag.String("exp", "all", "experiment to run (fig1, table2, fig5..fig11, all)")
	full := flag.Bool("full", false, "full fidelity (slower, tighter numbers)")
	csvDir := flag.String("csv", "", "also write <dir>/<experiment>.csv data files")
	matrix := flag.Bool("matrix", false, "run the scenario matrix instead of figure experiments")
	pareto := flag.Bool("pareto", false, "run a Pareto-frontier sweep over the synthesis weight grid instead of figure experiments")
	energyWeights := flag.String("energy-weights", "", "pareto: comma-separated energy-weight grid (default 0,0.5,1,2)")
	robustWeights := flag.String("robust-weights", "", "pareto: comma-separated robust-weight grid (default 0)")
	grid := flag.String("grid", "4x5", "matrix: interposer grid RxC")
	class := flag.String("class", "medium", "matrix: link-length class of the synthesized topology")
	topos := flag.String("topos", "mesh,ns", "matrix: comma-separated topologies (mesh, ns)")
	patterns := flag.String("patterns", defaultMatrixPatterns, "matrix: comma-separated registry patterns (name or name:key=val:...)")
	rates := flag.String("rates", "0.02,0.08,0.14", "matrix: comma-separated offered rates (packets/node/cycle)")
	traceFile := flag.String("trace", "", "matrix: trace file; appends the trace-replay pattern")
	smoke := flag.Bool("smoke", false, "matrix: minimal cycle budgets (CI smoke)")
	seed := flag.Int64("seed", 42, "matrix: base seed")
	energy := flag.Bool("energy", false, "matrix: collect measured energy (activity counters; fills the avg_power_mw / energy_per_flit_pj columns)")
	energyWeight := flag.Float64("energy-weight", 0, "matrix: weight of the energy-proxy term in the ns topology's synthesis objective")
	robustWeight := flag.Float64("robust-weight", 0, "matrix: weight of the fragility term in the ns topology's synthesis objective (prices single-link-failure exposure)")
	faults := flag.String("faults", "", "matrix: comma-separated fault schedules added as a matrix axis (name or name:key=val:..., e.g. klinks:k=2:at=400; a fault-free cell set always runs)")
	storeDir := flag.String("store", "", "matrix: content-addressed result store directory (cells cached; runs resume)")
	shardArg := flag.String("shard", "", "matrix: compute only shard i/n of the cells (e.g. 0/2; requires -store)")
	population := flag.Int("population", 0, "matrix: ns synthesis population size (0 = restart annealer; >= 2 enables population mode)")
	generations := flag.Int("generations", 0, "matrix: ns synthesis evolution rounds (default 8 when -population is set)")
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
		if err := runMatrix(*grid, *class, *topos, *patterns, *rates, *traceFile, *faults, *csvDir, *storeDir, *shardArg, *smoke, *full, *energy, *energyWeight, *robustWeight, *seed, *population, *generations); err != nil {
			fmt.Fprintf(os.Stderr, "matrix: %v\n", err)
			return 1
		}
		return 0
	}
	if *pareto {
		if err := runPareto(*grid, *class, *energyWeights, *robustWeights, *rates, *csvDir, *storeDir, *shardArg, *smoke, *full, *seed, *population, *generations); err != nil {
			fmt.Fprintf(os.Stderr, "pareto: %v\n", err)
			return 1
		}
		return 0
	}

	s := exp.NewSuite(!*full)
	w := os.Stdout
	csvOut := func(name string, write func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
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

// matrixSetups prepares the requested topologies through the builder
// shared with netsmith serve (exp.MatrixSetups): mesh baseline with
// expert NDBT routing and/or a latency-optimized NetSmith topology
// (fast-budget synthesis unless -full) with MCLB routing. With a
// store, synthesis results are content-addressed too (fixed budgets
// are deterministic), so re-runs skip the search.
func matrixSetups(topos string, g *layout.Grid, cl layout.Class, st *store.Store, full bool, energyWeight, robustWeight float64, seed int64, population, generations int) ([]*sim.Setup, error) {
	iters := 20000
	if full {
		iters = 80000
	}
	setups, _, err := exp.MatrixSetups(strings.Split(topos, ","), g, cl, st, energyWeight, robustWeight, seed, iters, population, generations)
	return setups, err
}

// matrixFaults parses -faults into fault-axis factories, failing fast
// on bad names/params by building each schedule against the grid's mesh
// before any synthesis or simulation time is spent. (RunMatrix rebuilds
// per topology; a schedule valid on the mesh can still fail on another
// topology, e.g. a link= event naming a link it lacks — that error
// surfaces from RunMatrix.)
func matrixFaults(args string, g *layout.Grid) ([]sim.FaultFactory, error) {
	if strings.TrimSpace(args) == "" {
		return nil, nil
	}
	reg := fault.Default()
	mesh := expert.Mesh(g)
	// The fault-free baseline always leads the axis: degradation columns
	// are only meaningful against it, and its cells share store keys with
	// matrices that never had a fault axis.
	factories := []sim.FaultFactory{sim.FaultRegistryFactory(reg, "none", nil)}
	seen := map[string]bool{factories[0].Name: true}
	for _, arg := range strings.Split(args, ",") {
		name, params, err := fault.ParseScheduleArg(strings.TrimSpace(arg))
		if err != nil {
			return nil, err
		}
		if _, err := reg.Build(name, mesh, params); err != nil {
			return nil, err
		}
		f := sim.FaultRegistryFactory(reg, name, params)
		if seen[f.Name] {
			continue
		}
		seen[f.Name] = true
		factories = append(factories, f)
	}
	return factories, nil
}

func runMatrix(grid, class, topos, patterns, rates, traceFile, faults, csvDir, storeDir, shardArg string, smoke, full, energy bool, energyWeight, robustWeight float64, seed int64, population, generations int) error {
	g, err := layout.ParseGrid(grid)
	if err != nil {
		return err
	}
	cl, err := layout.ParseClass(class)
	if err != nil {
		return err
	}
	shard, err := sim.ParseShard(shardArg)
	if err != nil {
		return err
	}
	faultFactories, err := matrixFaults(faults, g)
	if err != nil {
		return err
	}
	var st *store.Store
	if storeDir != "" {
		if st, err = store.Open(storeDir); err != nil {
			return err
		}
	}
	setups, err := matrixSetups(topos, g, cl, st, full, energyWeight, robustWeight, seed, population, generations)
	if err != nil {
		return err
	}

	env := traffic.GridEnv(g)
	reg := traffic.Default()
	var factories []sim.PatternFactory
	for _, arg := range strings.Split(patterns, ",") {
		name, params, err := traffic.ParsePatternArg(strings.TrimSpace(arg))
		if err != nil {
			return err
		}
		// Fail fast on bad names/params before burning simulation time.
		if _, err := reg.Build(name, env, params); err != nil {
			return err
		}
		factories = append(factories, sim.RegistryFactory(reg, name, env, params))
	}
	if traceFile != "" {
		// Parse the trace once; each cell replays the in-memory records
		// (the registry's "trace" entry would re-read the file per cell).
		raw, err := os.ReadFile(traceFile)
		if err != nil {
			return err
		}
		recs, err := traffic.ParseTrace(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		tag := strings.TrimSuffix(filepath.Base(traceFile), ".csv")
		if _, err := traffic.NewReplay(tag, env.N, recs, true); err != nil {
			return err
		}
		// The store key must follow the trace's content, not its file
		// name: two different traces named alike may not collide.
		sum := sha256.Sum256(raw)
		factories = append(factories, sim.PatternFactory{
			Name: "trace/" + tag,
			Key:  fmt.Sprintf("trace:%x:loop=true", sum[:8]),
			New: func() (traffic.Pattern, error) {
				return traffic.NewReplay(tag, env.N, recs, true)
			},
		})
	}

	rateGrid, err := parseFloatList("rate", rates, false)
	if err != nil {
		return err
	}

	// Use the shared presets: the budgets feed cell cache keys, so CLI
	// and serve runs sharing a store must agree on them.
	var base sim.Config
	fidelity := sim.FidelityFast
	switch {
	case smoke:
		fidelity = sim.FidelitySmoke
	case full:
		fidelity = sim.FidelityFull
	}
	if err := sim.ApplyFidelity(&base, fidelity); err != nil {
		return err
	}
	base.CollectEnergy = energy

	start := time.Now()
	res, err := sim.RunMatrix(sim.MatrixConfig{
		Setups: setups, Patterns: factories, Faults: faultFactories,
		Rates: rateGrid,
		Base:  base, Seed: seed,
		Store: st, Shard: shard,
	})
	var inc *sim.IncompleteError
	if errors.As(err, &inc) {
		// Not a failure: this shard's cells are persisted; the matrix
		// assembles once the remaining shards run against the store.
		fmt.Printf("[shard %s done: %d computed, %d cached of %d cells; %d pending — run the other shards against %s, then any re-run emits the merged matrix]\n",
			inc.Shard, inc.Computed, inc.CacheHits, inc.Cells, inc.Missing, storeDir)
		return nil
	}
	if err != nil {
		return err
	}
	exp.PrintMatrix(os.Stdout, res)
	if len(faultFactories) > 0 {
		fmt.Printf("[matrix: %d topologies x %d patterns x %d faults x %d rates in %v]\n",
			len(setups), len(factories), len(faultFactories), len(rateGrid), time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("[matrix: %d topologies x %d patterns x %d rates in %v]\n",
			len(setups), len(factories), len(rateGrid), time.Since(start).Round(time.Millisecond))
	}
	if st != nil {
		fmt.Printf("[store %s: %d cells simulated, %d from cache]\n",
			storeDir, res.Stats.Computed, res.Stats.CacheHits)
		if res.Stats.StoreErrors > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d cells could not be persisted to %s (results above are complete; those cells will recompute on resume)\n",
				res.Stats.StoreErrors, storeDir)
		}
	}

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		cf, err := os.Create(filepath.Join(csvDir, "matrix.csv"))
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := exp.MatrixCSV(cf, res); err != nil {
			return err
		}
		jf, err := os.Create(filepath.Join(csvDir, "matrix.json"))
		if err != nil {
			return err
		}
		defer jf.Close()
		if err := exp.MatrixJSON(jf, res); err != nil {
			return err
		}
	}
	return nil
}

// parseFloatList parses a comma-separated float list; an empty string
// is nil (callers default it). Values must be finite and positive, or
// merely non-negative with allowZero (weight grids price terms away
// with 0).
func parseFloatList(name, args string, allowZero bool) ([]float64, error) {
	if strings.TrimSpace(args) == "" {
		return nil, nil
	}
	var vs []float64
	for _, f := range strings.Split(args, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 || (!allowZero && v == 0) {
			return nil, fmt.Errorf("bad %s %q", name, f)
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// runPareto sweeps the synthesis weight grid into a dominated-point-free
// frontier with fleet-level energy accounting. Shares the synthesis and
// cell presets (iteration budgets, seed defaults, fidelity cycle
// budgets) with -matrix and netsmith serve, so all three fronts warm
// each other's stores.
func runPareto(grid, class, energyWeights, robustWeights, rates, csvDir, storeDir, shardArg string, smoke, full bool, seed int64, population, generations int) error {
	g, err := layout.ParseGrid(grid)
	if err != nil {
		return err
	}
	cl, err := layout.ParseClass(class)
	if err != nil {
		return err
	}
	shard, err := sim.ParseShard(shardArg)
	if err != nil {
		return err
	}
	ews, err := parseFloatList("energy weight", energyWeights, true)
	if err != nil {
		return err
	}
	rws, err := parseFloatList("robust weight", robustWeights, true)
	if err != nil {
		return err
	}
	rateGrid, err := parseFloatList("rate", rates, false)
	if err != nil {
		return err
	}
	var st *store.Store
	if storeDir != "" {
		if st, err = store.Open(storeDir); err != nil {
			return err
		}
	}
	iters := 20000
	if full {
		iters = 80000
	}
	fidelity := sim.FidelityFast
	switch {
	case smoke:
		fidelity = sim.FidelitySmoke
	case full:
		fidelity = sim.FidelityFull
	}

	start := time.Now()
	fr, err := exp.ParetoSweep(exp.ParetoConfig{
		Base:          synth.MatrixNSConfig(g, cl, 0, 0, seed, iters, population, generations),
		EnergyWeights: ews,
		RobustWeights: rws,
		Rates:         rateGrid,
		Fidelity:      fidelity,
		Store:         st,
		Shard:         shard,
	})
	var inc *exp.ParetoIncompleteError
	if errors.As(err, &inc) {
		// Not a failure: this shard's points are persisted; the frontier
		// assembles once the remaining shards run against the store.
		fmt.Printf("[pareto shard %s done: %d of %d points owned (%d synthesized, %d cached; %d cells, %d computed); %d pending — run the other shards against %s, then an unsharded re-run emits the frontier]\n",
			inc.Shard, inc.Owned, inc.Points, inc.Synthesized, inc.SynthCached, inc.Cells, inc.CellsComputed, inc.Pending, storeDir)
		return nil
	}
	if err != nil {
		return err
	}
	exp.PrintFrontier(os.Stdout, fr)
	fmt.Printf("[pareto: %d points (%d energy x %d robust weights) in %v]\n",
		fr.Swept, len(fr.EnergyWeights), len(fr.RobustWeights), time.Since(start).Round(time.Millisecond))
	if st != nil {
		if fr.Stats.FrontierCached {
			fmt.Printf("[store %s: frontier served from cache; 0 points synthesized, 0 cells simulated]\n", storeDir)
		} else {
			fmt.Printf("[store %s: %d points synthesized, %d from cache; %d cells simulated, %d from cache]\n",
				storeDir, fr.Stats.Synthesized, fr.Stats.SynthCached, fr.Stats.CellsComputed, fr.Stats.CellsCached)
			if fr.Stats.StoreErrors > 0 {
				fmt.Fprintf(os.Stderr, "warning: %d cells could not be persisted to %s (the frontier above is complete; those cells recompute on re-run)\n",
					fr.Stats.StoreErrors, storeDir)
			}
		}
	}

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		cf, err := os.Create(filepath.Join(csvDir, "frontier.csv"))
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := exp.FrontierCSV(cf, fr); err != nil {
			return err
		}
		jf, err := os.Create(filepath.Join(csvDir, "frontier.json"))
		if err != nil {
			return err
		}
		defer jf.Close()
		if err := exp.FrontierJSON(jf, fr); err != nil {
			return err
		}
	}
	return nil
}
