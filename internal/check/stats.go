package check

// Statistical validity: the confidence intervals the Stratified and
// RankedSet policies report are a runtime contract ("the true CPI is in
// this band with 95% confidence"), and a contract needs an enforcement
// harness. StatisticalValidity runs each policy family across many
// seeds against full-timing ground truth and checks three things:
// empirical coverage of the claimed intervals, seed determinism (and
// journal round-trip identity) of every result, and the error-targeting
// mode's budget/width promises. Everything is seeded, so a pass is a
// pinned, reproducible fact about the estimator layer — not a flaky
// statistical coin flip.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// StatValidityOptions configures StatisticalValidity. The zero value
// runs the standard design: 100 seeds per policy per benchmark on gzip
// and perlbmk at scale 50 000 (200 runs per policy family), requiring
// ≥90% of the claimed 95% intervals to cover the full-timing CPI.
type StatValidityOptions struct {
	// Scale is the benchmark scale divisor.
	Scale int
	// Benchmarks are the workloads to validate on.
	Benchmarks []string
	// Runs is the number of seeded runs per policy per benchmark.
	Runs int
	// MinCoverage is the required fraction of intervals (pooled across
	// benchmarks, per policy family) containing the true CPI.
	MinCoverage float64
	// Target is the error-targeting contract to verify (relative CPI
	// half-width, e.g. 0.05 = ±5%).
	Target float64
	// Budget caps the targeting mode's measurements per run.
	Budget int
	// Parallelism bounds concurrent runs (0 = NumCPU).
	Parallelism int
	// Progress, when non-nil, receives per-family summaries.
	Progress io.Writer
}

func (o *StatValidityOptions) setDefaults() {
	if o.Scale == 0 {
		o.Scale = 50_000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"gzip", "perlbmk"}
	}
	if o.Runs == 0 {
		o.Runs = 100
	}
	if o.MinCoverage == 0 {
		o.MinCoverage = 0.90
	}
	if o.Target == 0 {
		o.Target = 0.05
	}
	if o.Budget == 0 {
		o.Budget = 400
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
}

// statFamily is one policy family under validation: a constructor from
// seed, plus the error-targeting variant of the same design.
type statFamily struct {
	name     string
	make     func(seed uint64) sampling.Policy
	targeted func(seed uint64, target float64, budget int) sampling.Policy
}

func statFamilies() []statFamily {
	return []statFamily{
		{
			name: "Stratified",
			make: func(seed uint64) sampling.Policy { return sampling.NewStratified(seed) },
			targeted: func(seed uint64, target float64, budget int) sampling.Policy {
				return sampling.NewStratified(seed).WithTarget(target, budget)
			},
		},
		{
			name: "RankedSet",
			make: func(seed uint64) sampling.Policy { return sampling.NewRankedSet(seed) },
			targeted: func(seed uint64, target float64, budget int) sampling.Policy {
				p := sampling.NewRankedSet(seed)
				// The ranked-set budget is counted in cycles of SetSize
				// measurements each.
				return p.WithTarget(target, budget/p.SetSize)
			},
		},
	}
}

// StatisticalValidity validates the statistical sampling policies
// end to end. For every policy family it:
//
//   - runs Runs seeded designs per benchmark and requires that, pooled
//     across benchmarks, at least MinCoverage of the reported
//     confidence intervals contain the full-timing CPI (the intervals
//     claim 95%; the harness demands ≥90% so honest sampling noise in
//     the coverage estimate itself cannot fail a correct estimator);
//   - requires every run to report a finite, valid interval (a policy
//     that silently stopped reporting intervals must fail loudly, not
//     pass vacuously);
//   - re-runs one seed per benchmark and requires bit-identical
//     results, and round-trips that result through JSON, the journal's
//     wire format, requiring bit-identical reconstruction (both
//     compared field by field, through diffResults);
//   - runs the error-targeting variant and requires it to stop within
//     Budget everywhere and to deliver an interval no wider than
//     ±Target on at least one benchmark.
func StatisticalValidity(o StatValidityOptions) error {
	o.setDefaults()
	type truth struct {
		spec workload.Spec
		cpi  float64
	}
	truths := make([]truth, len(o.Benchmarks))
	for i, bench := range o.Benchmarks {
		spec, err := workload.ByName(bench)
		if err != nil {
			return fmt.Errorf("stat-validity: %w", err)
		}
		full, err := sampling.FullTiming{}.Run(core.NewSession(spec, core.Options{Scale: o.Scale}))
		if err != nil {
			return fmt.Errorf("stat-validity: full timing on %s: %w", bench, err)
		}
		if full.EstIPC <= 0 {
			return fmt.Errorf("stat-validity: full timing on %s: non-positive IPC %v", bench, full.EstIPC)
		}
		truths[i] = truth{spec: spec, cpi: 1 / full.EstIPC}
	}

	families := statFamilies()
	// results[f][b][s] for family f, benchmark b, seed s+1.
	results := make([][][]sampling.Result, len(families))
	errs := make([][][]error, len(families))
	for f := range families {
		results[f] = make([][]sampling.Result, len(truths))
		errs[f] = make([][]error, len(truths))
		for b := range truths {
			results[f][b] = make([]sampling.Result, o.Runs)
			errs[f][b] = make([]error, o.Runs)
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.Parallelism)
	for f := range families {
		for b := range truths {
			for s := 0; s < o.Runs; s++ {
				wg.Add(1)
				go func(f, b, s int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					p := families[f].make(uint64(s + 1))
					res, err := p.Run(core.NewSession(truths[b].spec, core.Options{Scale: o.Scale}))
					results[f][b][s], errs[f][b][s] = res, err
				}(f, b, s)
			}
		}
	}
	wg.Wait()

	for f, fam := range families {
		covered, total := 0, 0
		var sumRelHW float64
		for b, tr := range truths {
			for s := 0; s < o.Runs; s++ {
				if err := errs[f][b][s]; err != nil {
					return fmt.Errorf("stat-validity: %s seed %d on %s: %w",
						fam.name, s+1, o.Benchmarks[b], err)
				}
				res := results[f][b][s]
				iv := res.CPIInterval
				if iv == nil || !iv.Valid() {
					return fmt.Errorf("stat-validity: %s seed %d on %s: no valid interval (vacuous run)",
						fam.name, s+1, o.Benchmarks[b])
				}
				total++
				if iv.Contains(tr.cpi) {
					covered++
				}
				sumRelHW += iv.RelHalfWidth()
			}
		}
		coverage := float64(covered) / float64(total)
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "stat-validity: %s: coverage %d/%d (%.1f%%), mean half-width ±%.2f%%\n",
				fam.name, covered, total, coverage*100, sumRelHW/float64(total)*100)
		}
		if coverage < o.MinCoverage {
			return fmt.Errorf("stat-validity: %s: empirical coverage %.1f%% (%d/%d) below required %.0f%%",
				fam.name, coverage*100, covered, total, o.MinCoverage*100)
		}

		// Seed determinism and journal round-trip identity, one seed per
		// benchmark.
		for b, tr := range truths {
			first := results[f][b][0]
			again, err := fam.make(1).Run(core.NewSession(tr.spec, core.Options{Scale: o.Scale}))
			if err != nil {
				return fmt.Errorf("stat-validity: %s replay on %s: %w", fam.name, o.Benchmarks[b], err)
			}
			if err := diffResults(first, again); err != nil {
				return fmt.Errorf("stat-validity: %s on %s not seed-deterministic: %w",
					fam.name, o.Benchmarks[b], err)
			}
			blob, err := json.Marshal(first)
			if err != nil {
				return fmt.Errorf("stat-validity: %s on %s: marshal: %w", fam.name, o.Benchmarks[b], err)
			}
			var back sampling.Result
			if err := json.Unmarshal(blob, &back); err != nil {
				return fmt.Errorf("stat-validity: %s on %s: unmarshal: %w", fam.name, o.Benchmarks[b], err)
			}
			if err := diffResults(first, back); err != nil {
				return fmt.Errorf("stat-validity: %s on %s: journal round-trip not bit-identical: %w",
					fam.name, o.Benchmarks[b], err)
			}
		}

		// Error-targeting contract: stops within budget everywhere, and
		// the requested width is delivered on at least one benchmark.
		met := false
		for b, tr := range truths {
			p := fam.targeted(1, o.Target, o.Budget)
			res, err := p.Run(core.NewSession(tr.spec, core.Options{Scale: o.Scale}))
			if err != nil {
				return fmt.Errorf("stat-validity: %s targeting on %s: %w", fam.name, o.Benchmarks[b], err)
			}
			if res.Samples > o.Budget {
				return fmt.Errorf("stat-validity: %s targeting on %s: %d samples exceed budget %d",
					fam.name, o.Benchmarks[b], res.Samples, o.Budget)
			}
			if res.TargetMet {
				if iv := res.CPIInterval; iv == nil || !iv.Valid() || iv.RelHalfWidth() > o.Target {
					return fmt.Errorf("stat-validity: %s targeting on %s: TargetMet but interval wider than ±%.2f%%",
						fam.name, o.Benchmarks[b], o.Target*100)
				}
				met = true
			}
			if o.Progress != nil {
				fmt.Fprintf(o.Progress, "stat-validity: %s targeting ±%.1f%% on %s: met=%v with %d samples\n",
					fam.name, o.Target*100, o.Benchmarks[b], res.TargetMet, res.Samples)
			}
		}
		if !met {
			return fmt.Errorf("stat-validity: %s: error-targeting ±%.2f%% not met on any of %v within budget %d",
				fam.name, o.Target*100, o.Benchmarks, o.Budget)
		}
	}
	return nil
}
