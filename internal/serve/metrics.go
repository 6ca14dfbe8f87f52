package serve

import (
	"fmt"
	"net/http"
	"sort"
	"time"
)

// serverStats accumulates the counters behind /metrics; guarded by
// Server.mu.
type serverStats struct {
	accepted         map[string]int64 // jobs accepted, by kind
	shedTotal        int64            // POSTs rejected by admission (full queue or priority shed)
	rateLimitedTotal int64
	cancelledTotal   int64

	cellsComputed int64 // matrix cells simulated (local + cluster shards)
	cellsCached   int64 // matrix cells served from the store
	synthRuns     int64
	synthCached   int64

	// busy is the wall time during which at least one matrix or pareto
	// job ran, over closed intervals; while active > 0 the open one
	// began at busySince (see busyAt).
	busy      time.Duration
	active    int
	busySince time.Time

	// Fleet-level energy accounting, accumulated over served frontiers.
	// The power/energy sums divide out at scrape time into the exported
	// idle/active shares and the mean energy per delivered flit.
	paretoSweeps  int64
	paretoKept    int64
	paretoPruned  int64
	fleetPowerMW  float64
	fleetIdleMW   float64
	fleetActiveMW float64
	fleetFlitPJ   float64 // Σ per-frontier mean energy per flit
}

// busyStart and busyEnd bracket one running matrix or pareto job, so
// concurrent jobs count their shared wall time once.
func (st *serverStats) busyStart(now time.Time) {
	if st.active == 0 {
		st.busySince = now
	}
	st.active++
}

func (st *serverStats) busyEnd(now time.Time) {
	if st.active--; st.active == 0 {
		st.busy += now.Sub(st.busySince)
	}
}

// busyAt is the busy wall time as of now, the open interval included.
func (st *serverStats) busyAt(now time.Time) time.Duration {
	if st.active > 0 {
		return st.busy + now.Sub(st.busySince)
	}
	return st.busy
}

// handleMetrics is GET /metrics: Prometheus text exposition, hand
// rolled (no client library dependency). Everything is a counter or
// gauge scraped from one lock acquisition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	byState := map[string]int{}
	for _, j := range s.jobs {
		byState[j.state]++
	}
	queued := len(s.pending)
	st := s.stats
	busy := st.busyAt(now)
	accepted := make(map[string]int64, len(st.accepted))
	for k, v := range st.accepted {
		accepted[k] = v
	}
	liveWorkers := 0
	for _, seen := range s.workersSeen {
		if now.Sub(seen) <= 2*s.cfg.LeaseTTL {
			liveWorkers++
		}
	}
	shardsByState := map[string]int{}
	for _, cr := range s.clusters {
		for i := range cr.shards {
			shardsByState[cr.shards[i].stateName(now)]++
		}
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP netsmith_jobs Jobs in the registry by state.\n# TYPE netsmith_jobs gauge\n")
	for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "netsmith_jobs{state=%q} %d\n", state, byState[state])
	}
	fmt.Fprintf(w, "# HELP netsmith_queue_depth Live queued jobs.\n# TYPE netsmith_queue_depth gauge\n")
	fmt.Fprintf(w, "netsmith_queue_depth %d\n", queued)
	fmt.Fprintf(w, "# HELP netsmith_queue_capacity Configured queue bound.\n# TYPE netsmith_queue_capacity gauge\n")
	fmt.Fprintf(w, "netsmith_queue_capacity %d\n", s.cfg.QueueDepth)

	fmt.Fprintf(w, "# HELP netsmith_jobs_accepted_total Jobs accepted, by kind.\n# TYPE netsmith_jobs_accepted_total counter\n")
	kinds := make([]string, 0, len(accepted))
	for k := range accepted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "netsmith_jobs_accepted_total{kind=%q} %d\n", k, accepted[k])
	}
	fmt.Fprintf(w, "# HELP netsmith_jobs_shed_total POSTs rejected by admission control.\n# TYPE netsmith_jobs_shed_total counter\n")
	fmt.Fprintf(w, "netsmith_jobs_shed_total %d\n", st.shedTotal)
	fmt.Fprintf(w, "# HELP netsmith_rate_limited_total POSTs rejected by the per-client rate limit.\n# TYPE netsmith_rate_limited_total counter\n")
	fmt.Fprintf(w, "netsmith_rate_limited_total %d\n", st.rateLimitedTotal)
	fmt.Fprintf(w, "# HELP netsmith_jobs_cancelled_total Jobs cancelled via DELETE.\n# TYPE netsmith_jobs_cancelled_total counter\n")
	fmt.Fprintf(w, "netsmith_jobs_cancelled_total %d\n", st.cancelledTotal)

	fmt.Fprintf(w, "# HELP netsmith_matrix_cells_total Matrix cells resolved, by source.\n# TYPE netsmith_matrix_cells_total counter\n")
	fmt.Fprintf(w, "netsmith_matrix_cells_total{source=\"computed\"} %d\n", st.cellsComputed)
	fmt.Fprintf(w, "netsmith_matrix_cells_total{source=\"cache\"} %d\n", st.cellsCached)
	total := st.cellsComputed + st.cellsCached
	ratio := 0.0
	if total > 0 {
		ratio = float64(st.cellsCached) / float64(total)
	}
	fmt.Fprintf(w, "# HELP netsmith_cache_hit_ratio Fraction of matrix cells served from the store.\n# TYPE netsmith_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "netsmith_cache_hit_ratio %g\n", ratio)
	cellsPerSec := 0.0
	if busy > 0 {
		cellsPerSec = float64(total) / busy.Seconds()
	}
	fmt.Fprintf(w, "# HELP netsmith_cells_per_second Matrix cells resolved per second of wall time with a matrix or pareto job running.\n# TYPE netsmith_cells_per_second gauge\n")
	fmt.Fprintf(w, "netsmith_cells_per_second %g\n", cellsPerSec)

	fmt.Fprintf(w, "# HELP netsmith_synth_runs_total Synthesis executions (cached or searched).\n# TYPE netsmith_synth_runs_total counter\n")
	fmt.Fprintf(w, "netsmith_synth_runs_total %d\n", st.synthRuns)
	fmt.Fprintf(w, "netsmith_synth_cached_total %d\n", st.synthCached)

	fmt.Fprintf(w, "# HELP netsmith_pareto_sweeps_total Pareto sweeps served.\n# TYPE netsmith_pareto_sweeps_total counter\n")
	fmt.Fprintf(w, "netsmith_pareto_sweeps_total %d\n", st.paretoSweeps)
	fmt.Fprintf(w, "# HELP netsmith_pareto_points_total Sweep points by frontier outcome.\n# TYPE netsmith_pareto_points_total counter\n")
	fmt.Fprintf(w, "netsmith_pareto_points_total{result=\"kept\"} %d\n", st.paretoKept)
	fmt.Fprintf(w, "netsmith_pareto_points_total{result=\"pruned\"} %d\n", st.paretoPruned)
	fmt.Fprintf(w, "# HELP netsmith_fleet_power_mw Aggregate frontier power served, milliwatts.\n# TYPE netsmith_fleet_power_mw gauge\n")
	fmt.Fprintf(w, "netsmith_fleet_power_mw %g\n", st.fleetPowerMW)
	idleShare, activeShare := 0.0, 0.0
	if st.fleetPowerMW > 0 {
		idleShare = st.fleetIdleMW / st.fleetPowerMW
		activeShare = st.fleetActiveMW / st.fleetPowerMW
	}
	fmt.Fprintf(w, "# HELP netsmith_fleet_idle_power_share Idle (leakage) fraction of served frontier power.\n# TYPE netsmith_fleet_idle_power_share gauge\n")
	fmt.Fprintf(w, "netsmith_fleet_idle_power_share %g\n", idleShare)
	fmt.Fprintf(w, "# HELP netsmith_fleet_active_power_share Active (dynamic) fraction of served frontier power.\n# TYPE netsmith_fleet_active_power_share gauge\n")
	fmt.Fprintf(w, "netsmith_fleet_active_power_share %g\n", activeShare)
	flitPJ := 0.0
	if st.paretoSweeps > 0 {
		flitPJ = st.fleetFlitPJ / float64(st.paretoSweeps)
	}
	fmt.Fprintf(w, "# HELP netsmith_fleet_energy_per_flit_pj Mean energy per delivered flit across served frontiers, picojoules.\n# TYPE netsmith_fleet_energy_per_flit_pj gauge\n")
	fmt.Fprintf(w, "netsmith_fleet_energy_per_flit_pj %g\n", flitPJ)

	fmt.Fprintf(w, "# HELP netsmith_cluster_workers_live Workers seen within two lease TTLs.\n# TYPE netsmith_cluster_workers_live gauge\n")
	fmt.Fprintf(w, "netsmith_cluster_workers_live %d\n", liveWorkers)
	fmt.Fprintf(w, "# HELP netsmith_cluster_shards Active cluster shard leases by state.\n# TYPE netsmith_cluster_shards gauge\n")
	for _, state := range []string{"pending", "leased", "expired", "done"} {
		fmt.Fprintf(w, "netsmith_cluster_shards{state=%q} %d\n", state, shardsByState[state])
	}
}
