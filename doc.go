// Package netsmith is an optimization framework for machine-discovered
// network topologies, reproducing Green and Thottethodi, "NetSmith: An
// Optimization Framework for Machine-Discovered Network Topologies"
// (ICPP 2024), and growing it toward a servable, cache-backed system.
//
// Given the physical layout of interposer routers, a link-length budget
// and a router radix, NetSmith discovers network-on-interposer (NoI)
// topologies that minimize average hop count (LatOp) or maximize
// sparsest-cut bandwidth (SCOp), complete with minimum-max-channel-load
// (MCLB) shortest-path routing tables and deadlock-free virtual-channel
// assignments. Expert-designed baselines (Mesh, Folded Torus, the Kite
// family, Butter Donut, Double Butterfly, LPBT) and a flit-level network
// simulator are included for evaluation.
//
// # Synthesis
//
// Generate searches the constrained topology space (simulated annealing
// with exact incremental evaluation, gapped against combinatorial
// bounds; see DESIGN.md) for a router grid and objective:
//
//	res, err := netsmith.Generate(netsmith.Options{
//		Grid:      netsmith.Grid4x5,
//		Class:     netsmith.Medium,
//		Objective: netsmith.LatOp,
//	})
//	// res.Topology has the discovered network; res.Bound/res.Gap the
//	// optimality certificate.
//
// Grids are not capped at the paper's sizes: NewGrid(rows, cols)
// accepts any shape (Grid10x10 exercises the >64-router path).
// Baseline and Mesh/FoldedTorus return the expert-designed comparison
// topologies. Every run has a fixed step budget (Iterations steps per
// restart, Restarts restarts) and is deterministic: the same Options
// produce the same topology and progress trace at any GOMAXPROCS.
//
// Options.Population (>= 2) switches the search to population mode: a
// pool of topologies evolved for Options.Generations rounds (default 8)
// of tournament crossover with journaled connectivity repair,
// bound-based offspring pruning and polish-anneal bursts,
// elitist-merged deterministically. The total budget is
// Population*(1+Generations)*Iterations annealing steps, and the
// purity contract is unchanged. With GenerateCached, population
// runs also persist their initial portfolio members under weight- and
// seed-agnostic keys, so nearby configs (same grid/class/radix/
// symmetry) warm-start from the store.
//
// # Preparation and simulation
//
// Prepare builds the standard pipeline — MCLB routing plus a verified
// deadlock-free VC assignment — and the resulting Network feeds the
// flit-level simulator:
//
//	net, err := netsmith.Prepare(res.Topology)          // MCLB + VCs
//	curve, err := netsmith.SweepUniform(net, nil, 1)    // latency curve
//
// Sweep and SweepUniform trace latency-vs-injection curves; MCLB, NDBT
// and AssignVCs expose the pipeline stages individually.
//
// # Scenario matrices
//
// RunMatrix crosses prepared topologies with registered workloads
// (PatternNames, BuildPattern, PatternFactoryFor), optional fault
// schedules (FaultNames, BuildFaultSchedule, FaultFactoryFor) and a
// rate grid on a bounded worker pool. Patterns and schedules share one
// registry: the same "name:key=val:..." syntax (ParseFaultArg) and one
// canonical key, which enters the store's cell keys. Trace replay is
// not a registry pattern: MatrixJob.Trace replays a file and keys its
// cells by the file's content. Matrix output is bit-identical across
// reruns and GOMAXPROCS — the determinism contract that also makes
// results cacheable:
//
//	mc := netsmith.MatrixConfig{
//		Setups:   []*netsmith.Network{net},
//		Patterns: []netsmith.PatternFactory{netsmith.PatternFactoryFor("tornado", g, nil)},
//		Rates:    []float64{0.02, 0.10},
//	}
//	res, err := netsmith.RunMatrix(mc)
//
// # Caching, sharding and resume
//
// OpenStore opens a content-addressed on-disk result store. Attached
// to a MatrixConfig, it caches every cell under a canonical hash of
// its full input (prepared-network fingerprint, workload, rate,
// simulator knobs, seed, schema version): an interrupted run resumed
// with the same store recomputes only missing cells, and re-runs are
// served without simulating, byte-identical to a fresh run.
// MatrixConfig.Shard splits one matrix deterministically across
// machines sharing a store; RunMatrix returns *IncompleteError until
// every shard has contributed, then any run assembles the merged
// result:
//
//	st, err := netsmith.OpenStore(".netsmith-store")
//	mc.Store = st
//	mc.Shard = netsmith.Shard{Index: 0, Count: 2} // this machine's half
//	res, err := netsmith.RunMatrix(mc)
//
// GenerateCached is the synthesis analogue; every valid Options is
// cacheable.
//
// # Energy
//
// RunEnergy simulates with activity counters enabled and converts them
// to picojoules with the same 22nm constants as the analytic
// AnalyzePower model (Default22nm), so measured and modeled energy are
// cross-checkable. Options.EnergyWeight adds an energy proxy to the
// synthesis objective.
//
// # Pareto frontiers and fleet energy accounting
//
// ParetoSweep promotes the paper's latency/throughput/energy trade-off
// to a first-class artifact: it synthesizes one topology per
// (EnergyWeight, RobustWeight) grid point (cache-first through the
// synthesis store), measures every distinct candidate with the matrix
// harness, prunes dominated points with an exact non-domination filter
// and reports the surviving Frontier with FleetEnergy aggregates
// (idle vs. active power shares, mean energy per delivered flit).
// Every stage is deterministic, so frontier CSV/JSON emissions are
// byte-identical across GOMAXPROCS and warm/cold stores — a frontier
// diff between code versions is a real behavior change:
//
//	fr, err := netsmith.ParetoSweep(netsmith.ParetoConfig{
//		Base:          synthBase, // weights zero; the grids set them
//		EnergyWeights: []float64{0, 0.5, 1, 2},
//		Store:         st,
//	})
//
// Client.Pareto runs the same sweep as a served job (in remote mode it
// posts {"kind":"pareto",...} to /v1/jobs), shardable across cluster
// workers like a matrix; netbench -pareto is the CLI front end.
//
// # Full system
//
// BuildFullSystem assembles the paper's 64-core, 4-chiplet
// configuration around a NoI topology; RunWorkload plays the modelled
// PARSEC benchmarks (PARSECWorkloads) through it.
//
// # Client
//
// Client is the high-level entry point: one call shape that executes
// jobs in-process (local mode) or against a `netsmith serve`
// coordinator (remote mode, WithServer), with byte-identical results
// either way. A SynthJob/MatrixJob is exactly the POST /v1/jobs wire
// body, so the same value moves between laptop and cluster unchanged:
//
//	c, err := netsmith.NewClient(netsmith.WithStoreDir(".netsmith-store"))
//	out, hit, err := c.Matrix(ctx, netsmith.MatrixJob{Grid: "4x5", Fidelity: "fast"})
//
// Mapping from the lower-level Options surface (which remains fully
// supported — the Client is a convenience layer over the same code,
// nothing is deprecated):
//
//   - Options.Grid ("4x5" via NewGrid/Grid4x5)   → SynthJob.Grid "4x5"
//   - Options.Class (Small/Medium/Large)         → SynthJob.Class "small"|"medium"|"large"
//   - Options.Objective (LatOp/SCOp/PatternOp)   → SynthJob.Objective "latop"|"scop"|"shufopt"
//   - Options.Radix/Symmetric/MaxDiameter/MinCutBW,
//     EnergyWeight/RobustWeight, Seed/Iterations/Restarts
//     → same-named SynthJob fields
//   - Options.Progress has no Client equivalent; use Generate directly
//     to watch the search's progress trace.
//   - MatrixConfig axes → MatrixJob.Grid/Topos/Patterns/Rates/Faults,
//     with Fidelity naming the cycle budgets and Seed defaulting to 42
//     (the netbench -matrix default).
//   - MatrixConfig.Shard is not set by callers: MatrixJob.Shards asks
//     a remote coordinator to fan the matrix out across cluster
//     workers; sharding within a shared store stays available via
//     RunMatrix.
//
// # Command-line tools and serving
//
// cmd/netsmith synthesizes one topology ("netsmith -rows 4 -cols 5")
// and hosts the HTTP API ("netsmith serve": POST /v1/jobs with a
// tagged body enqueues async synth/matrix jobs on a bounded,
// priority-ordered pool; GET /v1/jobs lists and /v1/jobs/{id} polls;
// DELETE cancels mid-run; /v1/jobs/{id}/events streams progress over
// SSE; /metrics exposes Prometheus-style counters; the store answers
// repeats from cache). With -shards N the server becomes a cluster
// coordinator, leasing matrix shards to `netsmith serve -worker`
// processes that share its store. cmd/netbench regenerates the
// paper's tables and figures and runs scenario matrices over mesh,
// synthesized and expert topologies (-matrix, with -store/-shard for
// cached, resumable, distributed runs) and Pareto sweeps (-pareto).
// netbench -matrix/-pareto and netsmith run the same jobs as the
// HTTP API, with its defaults and caps. cmd/calibrate regenerates the
// frozen expert link lists; cmd/benchdiff gates CI on benchmark
// regressions.
//
// Runnable walkthroughs live under examples/ (see examples/README.md);
// design notes and fidelity arguments in DESIGN.md.
package netsmith
