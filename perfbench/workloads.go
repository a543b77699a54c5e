package main

import (
	"fmt"
	"sort"

	"repro/internal/experiments"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/vm"
	"repro/internal/workload"
)

// kind selects which public entry point a workload drives.
type kind int

const (
	// sessionKind runs one core.Session at a time under Policy.Run.
	sessionKind kind = iota
	// runnerKind runs an experiments.Runner over the policy matrix.
	runnerKind
	// sweepKind runs the matrix through a WAL-backed sweep coordinator
	// and loopback workers.
	sweepKind
)

// workloadDef is one named workload: which entry point it drives, at
// which scale, over which policies, and why it exists.
type workloadDef struct {
	name string
	// why is the reason the workload exists (also in BENCHMARK.json).
	why   string
	kind  kind
	scale int
	// rounds is how many rounds a pass over the seed's benchmarks is
	// split into (chunks). Short rounds give every run many of them, so
	// a median can shrug off a burst of load from other tenants of the
	// host.
	rounds int
	// policies returns the workload's policy matrix for a seed.
	policies func(scale int, seed uint64) []sampling.Policy
}

var workloads = []workloadDef{
	{
		name: "dynamic",
		why: "Dynamic Sampling CPU-300-1M-inf, the paper's headline policy, one session at a time: " +
			"fast-mode vm does almost all the work and timing almost none",
		kind:   sessionKind,
		scale:  20_000,
		rounds: 3,
		policies: func(int, uint64) []sampling.Policy {
			return []sampling.Policy{sampling.NewDynamic(vm.MetricCPU, 300, 1, 0)}
		},
	},
	{
		name: "full-timing",
		why: "FullTiming one session at a time: event generation and the timing core do all the work " +
			"and fast mode none, the mirror image of dynamic",
		kind:   sessionKind,
		scale:  50_000,
		rounds: 5,
		policies: func(int, uint64) []sampling.Policy {
			return []sampling.Policy{sampling.FullTiming{}}
		},
	},
	{
		name: "paper-sweep",
		why: "experiments.Runner over the artifact policy matrix with a journal and in-memory checkpoints: " +
			"SimPoint profiling and k-means, SMARTS warming and checkpoint reads carry real weight",
		kind:     runnerKind,
		scale:    100_000,
		rounds:   1,
		policies: paperMatrix,
	},
	{
		name: "dist-sweep",
		why: "the same matrix at a high scale through a WAL coordinator and 2 loopback workers over a disk-backed " +
			"remote checkpoint tier: coordination and checkpoint writes dominate",
		kind:   sweepKind,
		scale:  2_000_000,
		rounds: 5,
		// The sweep package fixes the matrix (workers derive it from the
		// coordinator's config), so the seed cannot reach its
		// Stratified/RankedSet seeds.
		policies: func(scale int, _ uint64) []sampling.Policy {
			return experiments.ArtifactPolicies(scale)
		},
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// statSeeds is how many Stratified/RankedSet seeds the workload seed
// chooses between; the references cover every one of them.
const statSeeds = 4

// statSeed is the Stratified/RankedSet sampling seed a workload seed
// selects.
func statSeed(seed uint64) uint64 { return experiments.StatSeed + seed%statSeeds }

// paperMatrix is the artifact policy matrix (experiments.ArtifactPolicies)
// with its statistical designs seeded from the workload seed.
func paperMatrix(scale int, seed uint64) []sampling.Policy {
	return append(experiments.BaselinePolicies(scale),
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
		sampling.NewStratified(statSeed(seed)),
		sampling.NewRankedSet(statSeed(seed)))
}

// policyKey is the execution a policy maps to: both SimPoint accounting
// variants come from one run of the SimPoint pipeline
// (experiments.PolicyKeyOf).
func policyKey(p sampling.Policy) string { return experiments.PolicyKeyOf(p) }

// cellPolicies groups a matrix by execution key, keeping first-seen
// order. A cell is one (benchmark, key) execution; its records are the
// results of every policy in the group.
type cellPolicy struct {
	key      string
	policies []sampling.Policy
}

func groupByKey(ps []sampling.Policy) []cellPolicy {
	var out []cellPolicy
	index := map[string]int{}
	for _, p := range ps {
		k := policyKey(p)
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, cellPolicy{key: k})
		}
		out[i].policies = append(out[i].policies, p)
	}
	return out
}

// primary is the record whose instructions and modelled cost stand for
// the whole cell: for SimPoint the variant charged with the profiling
// pass the execution really performed.
func (c cellPolicy) primary() string {
	if c.key == "SimPoint*" {
		return simpoint.New(true).Name()
	}
	return c.policies[0].Name()
}

// Memory-boundedness classes of the suite, from the mem-bound column
// cmd/spectable prints.
var classNames = [...]string{"low", "mid", "high"}

func memClass(s workload.Spec) int {
	switch {
	case s.MemBound <= 0.30:
		return 0
	case s.MemBound <= 0.50:
		return 1
	default:
		return 2
	}
}

// selectBenchmarks returns the benchmarks a seed picks: every suite
// benchmark except one, held out from a seed-chosen memory-boundedness
// class, in a seed-shuffled order that interleaves the low, mid and
// high classes. Holding out one benchmark rather than sampling a few
// keeps each run's work mix, and so every metric, close to the whole
// suite's, while still letting a claim be checked on inputs it was not
// tuned on.
func selectBenchmarks(seed uint64) []string {
	rng := workload.NewRNG(seed*0x9e3779b97f4a7c15 + 1)
	var classes [len(classNames)][]string
	for _, s := range workload.Suite {
		c := memClass(s)
		classes[c] = append(classes[c], s.Name)
	}
	drop := rng.Intn(len(classes))
	i := rng.Intn(len(classes[drop]))
	classes[drop] = append(classes[drop][:i:i], classes[drop][i+1:]...)
	for _, cl := range classes {
		for j := len(cl) - 1; j > 0; j-- {
			k := rng.Intn(j + 1)
			cl[j], cl[k] = cl[k], cl[j]
		}
	}
	var out []string
	for j := 0; ; j++ {
		added := false
		for _, cl := range classes {
			if j < len(cl) {
				out = append(out, cl[j])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// chunks splits the seed's benchmarks into n rounds. The suite, in its
// own order, is cut into n groups of near-equal size, and each round
// runs the group's benchmarks the seed picked, in the seed's order.
// Fixed groups keep a round's mix of benchmarks, and so its memory
// high-water mark, the same from seed to seed: only the held-out
// benchmark's group loses one.
func chunks(benches []string, n int) [][]string {
	pos := map[string]int{}
	for i, b := range benches {
		pos[b] = i
	}
	var out [][]string
	size, extra := len(workload.Suite)/n, len(workload.Suite)%n
	for i, start := 0, 0; i < n; i++ {
		end := start + size
		if i < extra {
			end++
		}
		var c []string
		for _, s := range workload.Suite[start:end] {
			if _, ok := pos[s.Name]; ok {
				c = append(c, s.Name)
			}
		}
		sort.Slice(c, func(a, b int) bool { return pos[c[a]] < pos[c[b]] })
		if len(c) > 0 {
			out = append(out, c)
		}
		start = end
	}
	return out
}
