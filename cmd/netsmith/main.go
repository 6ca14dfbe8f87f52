// Command netsmith generates a network-on-interposer topology for a
// router layout, link-length class and radix, optimizing average hop
// count (latop), sparsest-cut bandwidth (scop) or a traffic pattern
// (shufopt), and prints the topology with its metrics, MCLB routing
// summary and deadlock-free VC assignment. The flags fill the synth
// job that netsmith serve accepts, so they are checked and capped the
// same way.
//
// Example:
//
//	netsmith -rows 4 -cols 5 -class medium -objective latop -iterations 120000
//
// The serve subcommand instead runs the HTTP API: synthesis and
// scenario-matrix jobs on a bounded, priority-ordered worker pool,
// backed by the content-addressed result store so repeated requests
// are answered from cache without re-simulating.
//
//	netsmith serve -addr :8080 -store .netsmith-store
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{"kind":"matrix","grid":"4x4"}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -N localhost:8080/v1/jobs/j000001/events   # SSE progress
//
// With -shards N the server also acts as a cluster coordinator,
// splitting each matrix job into N shard leases that worker processes
// sharing the same store claim and execute:
//
//	netsmith serve -addr :8080 -store /shared/store -shards 4
//	netsmith serve -worker -coordinator http://host:8080 -store /shared/store
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netsmith/internal/route"
	"netsmith/internal/serve"
	"netsmith/internal/store"
	"netsmith/internal/topo"
	"netsmith/internal/vc"
)

// runServe is the serve subcommand: netsmith serve [flags]. It covers
// both roles of cluster mode — coordinator (default) and worker
// (-worker -coordinator URL) — because both sit on the same store.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	storeDir := fs.String("store", ".netsmith-store", "content-addressed result store directory")
	workers := fs.Int("workers", 2, "concurrent jobs")
	queue := fs.Int("queue", 32, "pending-job queue depth (full queue answers 503)")
	rate := fs.Float64("rate", 0, "per-client job submissions per second (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-client submission burst (0 = 2x rate)")
	shards := fs.Int("shards", 0, "default matrix shard count for cluster execution (0 = run matrices locally)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "cluster shard lease TTL; a worker silent this long loses its shard")
	selfWork := fs.Bool("selfwork", true, "coordinator executes unclaimed shards itself after one lease TTL")
	worker := fs.Bool("worker", false, "run as a cluster worker instead of a coordinator")
	coordinator := fs.String("coordinator", "", "coordinator base URL (worker mode), e.g. http://host:8080")
	poll := fs.Duration("poll", 500*time.Millisecond, "worker claim-poll interval when idle")
	name := fs.String("name", "", "worker name reported to the coordinator (default worker-<host>-<pid>)")
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	if *worker {
		if *coordinator == "" {
			fatal(fmt.Errorf("worker mode needs -coordinator URL"))
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Printf("netsmith worker: coordinator %s (store %s)\n", *coordinator, *storeDir)
		err := serve.RunWorker(ctx, serve.WorkerConfig{
			Coordinator: *coordinator,
			Store:       st,
			Name:        *name,
			Poll:        *poll,
			Logf:        log.Printf,
		})
		if err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}
	srv, err := serve.New(serve.Config{
		Store: st, Workers: *workers, QueueDepth: *queue,
		RatePerSec: *rate, RateBurst: *burst,
		ClusterShards: *shards, LeaseTTL: *leaseTTL,
		DisableSelfWork: !*selfWork,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("netsmith serve: listening on %s (store %s, %d workers, queue %d, shards %d)\n",
		*addr, *storeDir, *workers, *queue, *shards)
	// Header/read timeouts keep slow clients (slowloris) from pinning
	// connections and file descriptors indefinitely; request bodies are
	// small JSON, so tight bounds are safe.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	if err := hs.ListenAndServe(); err != nil {
		fatal(err)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	rows := flag.Int("rows", 4, "router grid rows")
	cols := flag.Int("cols", 5, "router grid columns")
	className := flag.String("class", "medium", "link-length class: small, medium, large")
	objective := flag.String("objective", "latop", "objective: latop, scop, shufopt")
	radix := flag.Int("radix", 4, "per-direction router radix")
	symmetric := flag.Bool("symmetric", false, "force symmetric links (constraint C9)")
	maxDiameter := flag.Int("diameter", 0, "optional diameter bound (constraint C8)")
	iterations := flag.Int("iterations", 0, "annealing steps per restart (0 = default 60000; 4 restarts)")
	population := flag.Int("population", 0, "population size (0 = restart annealer; >= 2 enables population mode)")
	generations := flag.Int("generations", 0, "population evolution rounds (default 8 when -population is set)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	// The step budget makes the run a pure function of the flags:
	// rerunning prints byte-identical output (the CI smoke relies on this
	// to diff population runs across processes).
	res, _, err := serve.ExecuteSynth(context.Background(), nil, serve.SynthRequest{
		Grid: fmt.Sprintf("%dx%d", *rows, *cols), Class: *className, Objective: *objective,
		Radix: *radix, Symmetric: *symmetric, MaxDiameter: *maxDiameter,
		Seed: *seed, Iterations: *iterations,
		Population: *population, Generations: *generations,
	})
	if err != nil {
		fatal(err)
	}
	t := new(topo.Topology)
	if err := json.Unmarshal(res.Topology, t); err != nil {
		fatal(err)
	}
	fmt.Printf("NetSmith: %s, %s class, radix %d, objective %s\n", t.Grid, t.Class, *radix, *objective)
	fmt.Printf("objective=%.4g bound=%.4g gap=%.1f%% optimal=%v\n",
		res.Objective, res.Bound, 100*res.Gap, res.Optimal)
	fmt.Printf("links=%d diameter=%d avgHops=%.3f bisectionBW=%d sparsestCut=%.4f\n",
		res.Links, res.Diameter, res.AvgHops, t.BisectionBandwidth(), t.SparsestCut().Bandwidth)
	fmt.Println("link list (directed):")
	for _, l := range t.Links() {
		fmt.Printf("  %d -> %d\n", l.From, l.To)
	}

	r, err := route.MCLB(t, route.MCLBOptions{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("MCLB routing: max channel load %d, avg hops %.3f\n", r.MaxChannelLoad(), r.AverageHops())
	a, err := vc.Assign(r, vc.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	if err := a.Verify(r); err != nil {
		fatal(err)
	}
	fmt.Printf("deadlock-free VC assignment: %d escape VCs, occupancy %v\n", a.NumVCs, a.Occupancy(r))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netsmith:", err)
	os.Exit(1)
}
