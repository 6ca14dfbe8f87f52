package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"netsmith"
	"netsmith/internal/layout"
	"netsmith/internal/topo"
)

// synthMix is the synth workload's block of 31 ops: ten configurations
// with the number of times each appears. Sorted by cost, the cheap 4x5
// configs take the first 12 slots, the 8x6 LatOp ops (with the weighted
// op beside them) are centred on p50, the 4x5 ShufOpt ops on p75, and
// 10x10 LatOp and SCOp form the tail. Both percentiles thus fall on ops
// of 0.1 s or more, which host noise moves less than 30 ms ones.
var synthMix = []struct {
	class string
	count int
	job   netsmith.SynthJob
}{
	{"population", 3, netsmith.SynthJob{Grid: "4x5", Class: "medium", Objective: "latop", Population: 8, Generations: 4, Iterations: 5000}},
	{"latop", 3, netsmith.SynthJob{Grid: "4x5", Class: "small", Objective: "latop"}},
	{"latop", 3, netsmith.SynthJob{Grid: "4x5", Class: "medium", Objective: "latop"}},
	{"latop", 3, netsmith.SynthJob{Grid: "4x5", Class: "large", Objective: "latop"}},
	{"weighted", 1, netsmith.SynthJob{Grid: "4x5", Class: "medium", Objective: "latop", EnergyWeight: 1, RobustWeight: 1}},
	{"latop-8x6", 6, netsmith.SynthJob{Grid: "8x6", Class: "medium", Objective: "latop"}},
	{"shufopt", 8, netsmith.SynthJob{Grid: "4x5", Class: "medium", Objective: "shufopt"}},
	{"latop-10x10", 1, netsmith.SynthJob{Grid: "10x10", Class: "medium", Objective: "latop", Iterations: 20000}},
	{"scop", 2, netsmith.SynthJob{Grid: "4x5", Class: "medium", Objective: "scop"}},
	{"scop", 1, netsmith.SynthJob{Grid: "6x5", Class: "medium", Objective: "scop"}},
}

// synthSeeds is the pool each op draws its synthesis seed from.
var synthSeeds = []int64{1, 2, 3, 4, 5, 6}

var synthWorkload = &workload{
	name:    "synth",
	why:     "topology synthesis alone: one caller, local Client.Synth over ten configs; time goes to synth/bitgraph/mip",
	clients: 1,
	ops: func(seed int64, client int) func() []op {
		rng := rand.New(rand.NewSource(seed))
		seeds := make([]cycler, len(synthMix))
		for i := range seeds {
			seeds[i] = cycler{rng: rng, n: len(synthSeeds)}
		}
		return func() []op {
			var block []op
			for k, m := range synthMix {
				for i := 0; i < m.count; i++ {
					job := m.job
					job.Seed = synthSeeds[seeds[k].next()]
					block = append(block, synthOp(m.class, job))
				}
			}
			return shuffled(rng, block)
		}
	},
	pool: func() []op {
		var ops []op
		seen := map[string]bool{}
		for _, m := range synthMix {
			for _, s := range synthSeeds {
				job := m.job
				job.Seed = s
				if o := synthOp(m.class, job); !seen[o.Key] {
					seen[o.Key] = true
					ops = append(ops, o)
				}
			}
		}
		return ops
	},
	warmup: func() []op {
		job := synthMix[2].job
		job.Seed = synthSeeds[0]
		return []op{synthOp(synthMix[2].class, job)}
	},
	build: func(ctx context.Context, sc scope) (fixture, error) {
		c, err := netsmith.NewClient()
		if err != nil {
			return nil, err
		}
		return &synthFixture{client: c}, nil
	},
	layers: synthLayers,
}

func synthOp(class string, job netsmith.SynthJob) op {
	return op{Key: opKey("synth", job), Class: class, body: job}
}

// opKey is a workload name plus the op's canonical JSON body.
func opKey(workload string, body any) string {
	b, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("bench: op key: %v", err))
	}
	return workload + " " + string(b)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

type synthFixture struct{ client *netsmith.Client }

func (f *synthFixture) verify() (string, error) { return "", nil }
func (f *synthFixture) close()                  {}

func (f *synthFixture) do(ctx context.Context, _ int, o op, sc scope) (outcome, error) {
	job := o.body.(netsmith.SynthJob)
	if sc.tr != nil {
		return synthTraced(job, sc)
	}
	res, _, err := f.client.Synth(ctx, job)
	if err != nil {
		return outcome{}, err
	}
	return synthOutcome(job, res.Topology), nil
}

// synthTraced re-executes Client.Synth as the public calls it is made
// of: the request's solver options, Generate, and the topology metrics
// the result reports.
func synthTraced(job netsmith.SynthJob, sc scope) (outcome, error) {
	exec := sc.child("serve.synth")
	defer exec.end()
	opts, err := synthOptions(job)
	if err != nil {
		return outcome{}, err
	}
	steps, err := annealSteps(opts)
	if err != nil {
		return outcome{}, err
	}
	gen := exec.child("synth.generate")
	res, err := netsmith.Generate(opts)
	gen.endCount(steps)
	if err != nil {
		return outcome{}, err
	}
	m := exec.child("topo.metrics")
	_, _, _ = res.Topology.NumLinks(), res.Topology.Diameter(), res.Topology.AverageHops()
	m.end()
	tj, err := json.Marshal(res.Topology)
	if err != nil {
		return outcome{}, err
	}
	return synthOutcome(job, tj), nil
}

// synthOptions maps a synth job onto the facade's solver options the
// way the serve package does for the knobs this workload sets; the
// traced digest check fails if the two mappings ever disagree.
func synthOptions(job netsmith.SynthJob) (netsmith.Options, error) {
	g, err := layout.ParseGrid(job.Grid)
	if err != nil {
		return netsmith.Options{}, err
	}
	cl, err := layout.ParseClass(job.Class)
	if err != nil {
		return netsmith.Options{}, err
	}
	o := netsmith.Options{
		Grid: g, Class: cl, Radix: job.Radix,
		EnergyWeight: job.EnergyWeight, RobustWeight: job.RobustWeight,
		Seed: job.Seed, Iterations: job.Iterations, Restarts: job.Restarts,
		Population: job.Population, Generations: job.Generations,
	}
	switch job.Objective {
	case "latop":
		o.Objective = netsmith.LatOp
	case "scop":
		o.Objective = netsmith.SCOp
	case "shufopt":
		o.Objective = netsmith.PatternOp
		o.Weights = netsmith.ShuffleWeights(g.N())
	default:
		return netsmith.Options{}, fmt.Errorf("unknown objective %q", job.Objective)
	}
	return o, nil
}

// annealSteps is the annealing budget the options ask for, with the
// solver's own defaults applied.
func annealSteps(opts netsmith.Options) (int64, error) {
	cfg, err := opts.SynthConfig().Normalized()
	if err != nil {
		return 0, err
	}
	if cfg.Population > 0 {
		return int64(cfg.Population) * int64(1+cfg.Generations) * int64(cfg.Iterations), nil
	}
	return int64(cfg.Restarts) * int64(cfg.Iterations), nil
}

// synthOutcome digests the topology JSON and checks the constraints
// every synthesized topology must meet.
func synthOutcome(job netsmith.SynthJob, topoJSON []byte) outcome {
	return outcome{
		digest: digest(topoJSON),
		check: func() error {
			var t topo.Topology
			if err := json.Unmarshal(topoJSON, &t); err != nil {
				return err
			}
			radix := job.Radix
			if radix == 0 {
				radix = 4
			}
			switch {
			case !t.RespectsRadix(radix):
				return fmt.Errorf("topology exceeds radix %d", radix)
			case !t.RespectsLinkLengths():
				return fmt.Errorf("topology breaks its link-length class")
			case !t.IsConnected():
				return fmt.Errorf("topology is disconnected")
			}
			return nil
		},
	}
}

func synthLayers(t *tracedRun) (map[string]metricValue, error) {
	byClass := func(c string) func(span) bool { return func(s span) bool { return s.Class == c } }
	var steps int64
	var secs float64
	gens := t.spansNamed("synth.generate", nil)
	for _, s := range gens {
		steps += s.Count
		secs += s.dur().Seconds()
	}
	m := map[string]metricValue{
		"synth.generate_s":            t.selfMedian("synth.generate", nil),
		"synth.generate_population_s": t.selfMedian("synth.generate", byClass("population")),
		"synth.generate_scop_s":       t.selfMedian("synth.generate", byClass("scop")),
		"synth.generate_weighted_s":   t.selfMedian("synth.generate", byClass("weighted")),
		"topo.metrics_s":              t.selfMedian("topo.metrics", nil),
		"serve.synth_self_s":          t.selfMedian("serve.synth", nil),
	}
	if secs > 0 {
		m["synth.msteps_per_s"] = stat(float64(steps)/secs/1e6, len(gens))
	}
	return m, nil
}
