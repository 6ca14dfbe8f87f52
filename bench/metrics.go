package main

// metricSpec names a metric and its unit. BENCHMARK.json lists the same
// metrics with their regression bounds; a test keeps the two in step.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_s", "s", "lower"},
	{"op_p75_s", "s", "lower"},
	{"rss_p50_mb", "MiB", "lower"},
}

// perLayerMetrics are reported by every traced run. A workload that
// does not enter a layer reports 0 for it.
var perLayerMetrics = []metricSpec{
	{"bench.trace_overhead_frac", "frac", "lower"},
	{"synth.generate_s", "s", "lower"},
	{"synth.generate_population_s", "s", "lower"},
	{"synth.generate_scop_s", "s", "lower"},
	{"synth.generate_weighted_s", "s", "lower"},
	{"synth.msteps_per_s", "Msteps/s", "higher"},
	{"topo.metrics_s", "s", "lower"},
	{"serve.synth_self_s", "s", "lower"},
	{"exp.matrix_setups_s", "s", "lower"},
	{"synth.cached_generate_s", "s", "lower"},
	{"route.mclb_s", "s", "lower"},
	{"route.ndbt_s", "s", "lower"},
	{"vc.assign_s", "s", "lower"},
	{"sim.fingerprint_s", "s", "lower"},
	{"sim.run_matrix_s", "s", "lower"},
	{"sim.cell_s", "s", "lower"},
	{"sim.cell_p75_s", "s", "lower"},
	{"sim.cell_idle_s", "s", "lower"},
	{"sim.cell_saturated_s", "s", "lower"},
	{"sim.cell_fault_s", "s", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.events_per_cell", "count", "lower"},
	{"sim.events_per_op", "count", "lower"},
	{"sim.pool_efficiency", "frac", "higher"},
	{"fullsys.build_s", "s", "lower"},
	{"fullsys.run_workload_s", "s", "lower"},
	{"serve.post_s", "s", "lower"},
	{"serve.poll_s", "s", "lower"},
	{"serve.polls_per_job", "count", "lower"},
	{"serve.exec_s", "s", "lower"},
	{"serve.exec_warm_s", "s", "lower"},
	{"serve.exec_sharded_s", "s", "lower"},
	{"serve.exec_pareto_s", "s", "lower"},
	{"serve.wait_s", "s", "lower"},
	{"serve.warm_op_p50_s", "s", "lower"},
	{"serve.cold_op_p50_s", "s", "lower"},
	{"store.get_s", "s", "lower"},
	{"store.key_hash_s", "s", "lower"},
	{"store.put_s", "s", "lower"},
	{"store.blob_kb", "KiB", "lower"},
	{"store.cell_hit_ratio", "frac", "higher"},
	{"serve.refused", "count", "lower"},
}
