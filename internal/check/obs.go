package check

// Observability invariance: the obs layer must be inert. A metrics
// registry and transition trace attached to a session may only *read*
// simulation state; wall-clock nondeterminism flows into the metrics,
// never back into results. This is pinned at both granularities:
// per-policy results bit-identical (the ObsVariants entry of the
// PolicyEquivalence table) and whole rendered artifact bundles
// byte-identical (ObsArtifactInvariance).

import (
	"bytes"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// ObsArtifactInvariance renders the full artifact bundle twice — once
// plain, once with an obs registry and trace attached to the runner —
// and requires byte-identical output. This covers the paths the
// per-policy ObsVariants cannot: the runner's cell lifecycle, the shared
// checkpoint store's counter mirror, and SimPoint's two-pass pipeline.
func ObsArtifactInvariance(scale int, benches []string) error {
	base := experiments.Options{Scale: scale, Benchmarks: benches}
	golden, err := renderWith(base)
	if err != nil {
		return fmt.Errorf("obs-invariance: plain run: %w", err)
	}

	instr := base
	instr.Obs = obs.NewRegistry()
	instr.Trace = obs.NewTransitionTrace(obs.DefaultTraceCap)
	got, err := renderWith(instr)
	if err != nil {
		return fmt.Errorf("obs-invariance: instrumented run: %w", err)
	}
	if !bytes.Equal(got, golden) {
		return fmt.Errorf("obs-invariance: artifacts diverge with obs attached\n%s",
			DiffSummary("plain", "instrumented", golden, got))
	}
	if instr.Trace.Total() == 0 {
		return fmt.Errorf("obs-invariance: vacuous — no transitions recorded")
	}
	return nil
}
