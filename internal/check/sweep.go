package check

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/sweep"
)

// SweepOptions configures SweepEquivalence.
type SweepOptions struct {
	// Scale and Benchmarks configure the sweep and the sequential golden
	// run (defaults: 50_000 and {gzip, perlbmk}).
	Scale      int
	Benchmarks []string
	// Workers lists the worker counts to check (default {2, 4}).
	Workers []int
	// Seeds drive the fault injectors: each (worker count, seed) pair is
	// one full distributed sweep (default {1, 2}, widened to 1..4 for a
	// single worker count so a narrowed matrix sees as many injector
	// draws).
	Seeds []uint64
	// Plan is the sweep fault schedule (zero value means
	// DefaultSweepPlan: worker kills plus remote-tier network faults).
	Plan faults.Plan
	// LeaseTTL is the coordinator lease TTL. Short, so abandoned leases
	// from killed workers re-issue in test time (default 300ms).
	LeaseTTL time.Duration
	// Poll is the worker claim-poll interval (default 25ms).
	Poll time.Duration
	// Timeout bounds one whole distributed sweep; a deadlocked protocol
	// fails the check instead of hanging it (default 120s).
	Timeout time.Duration
	// RequireKinds lists fault kinds that must have fired at least once
	// across all sweeps; the check fails (vacuous) otherwise. NetCorrupt
	// is dropped when every worker count is below 4: corrupting a remote
	// GET body needs a cross-worker checkpoint hit, which smaller
	// schedules rarely produce before the injected put failures switch
	// the remote tier off (the kind keeps its dedicated pin in
	// internal/sweep's TestRemoteTierFaultMatrix).
	RequireKinds []faults.Kind
	// Progress, when non-nil, receives worker progress lines.
	Progress io.Writer
}

func (o *SweepOptions) setDefaults() {
	if o.Scale <= 0 {
		o.Scale = 50_000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"gzip", "perlbmk"}
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{2, 4}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2}
		if len(o.Workers) == 1 {
			o.Seeds = []uint64{1, 2, 3, 4}
		}
	}
	if slices.Max(o.Workers) < 4 {
		o.RequireKinds = slices.DeleteFunc(slices.Clone(o.RequireKinds),
			func(k faults.Kind) bool { return k == faults.NetCorrupt })
	}
	if (o.Plan == faults.Plan{}) {
		o.Plan = DefaultSweepPlan()
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 300 * time.Millisecond
	}
	if o.Poll <= 0 {
		o.Poll = 25 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
}

// DefaultSweepPlan is the sweep fault schedule: most first deliveries
// die mid-lease, and the remote checkpoint tier suffers outages and
// in-flight corruption in both directions. All healable by
// construction — kills are bounded per cell by KillAttempts, and the
// remote tier is a cache the store degrades away from.
func DefaultSweepPlan() faults.Plan {
	return faults.Plan{
		WorkerKill:   0.6,
		KillAttempts: 1,
		NetGet:       0.25,
		NetPut:       0.25,
		NetCorrupt:   0.3,
	}
}

// SweepEquivalence pins the distributed sweep's whole contract: an
// N-worker sweep — under seeded worker kills mid-lease and remote
// checkpoint faults — produces (1) artifacts byte-identical to the
// sequential single-process run, (2) a merged journal byte-identical
// across every worker count, seed, and crash history, (3) exactly-once
// cell accounting (completions == cells, no matter how many kills and
// re-executions happened along the way), and (4) a merged journal
// complete enough that rendering from it executes nothing.
func SweepEquivalence(o SweepOptions) error {
	o.setDefaults()

	// Sequential golden run: the bytes every distributed configuration
	// must reproduce.
	goldenDir, err := os.MkdirTemp("", "sweep-golden-*")
	if err != nil {
		return fmt.Errorf("sweep-equivalence: %w", err)
	}
	defer os.RemoveAll(goldenDir)
	golden, err := renderWith(experiments.Options{
		Scale:      o.Scale,
		Benchmarks: o.Benchmarks,
		Progress:   o.Progress,
		CkptDir:    filepath.Join(goldenDir, "ckpt"),
	})
	if err != nil {
		return fmt.Errorf("sweep-equivalence: sequential run: %w", err)
	}

	fired := make(map[faults.Kind]uint64)
	var goldenJournal []byte
	for _, workers := range o.Workers {
		for _, seed := range o.Seeds {
			journal, inj, err := runSweep(o, workers, seed, golden)
			if err != nil {
				return fmt.Errorf("sweep-equivalence: %d workers, seed %d: %w [%s]",
					workers, seed, err, inj)
			}
			if goldenJournal == nil {
				goldenJournal = journal
			} else if !bytes.Equal(journal, goldenJournal) {
				return fmt.Errorf("sweep-equivalence: %d workers, seed %d: merged journal diverges across configurations [%s]\n%s",
					workers, seed, inj, DiffSummary(
						fmt.Sprintf("%d workers, seed %d", o.Workers[0], o.Seeds[0]),
						fmt.Sprintf("%d workers, seed %d", workers, seed),
						goldenJournal, journal))
			}
			for k, n := range inj.Fired() {
				fired[k] += n
			}
		}
	}

	for _, k := range o.RequireKinds {
		if fired[k] == 0 {
			return fmt.Errorf("sweep-equivalence: vacuous — fault kind %q never fired across workers %v seeds %v (fired: %v)",
				k, o.Workers, o.Seeds, fired)
		}
	}
	return nil
}

// runSweep executes one full distributed sweep (coordinator + workers
// over a real HTTP loopback) and verifies its artifacts against the
// sequential golden bytes. It returns the merged journal bytes for the
// cross-configuration comparison.
func runSweep(o SweepOptions, workers int, seed uint64, golden []byte) ([]byte, *faults.Injector, error) {
	inj := faults.New(seed, o.Plan)

	dir, err := os.MkdirTemp("", "sweep-equiv-*")
	if err != nil {
		return nil, inj, err
	}
	defer os.RemoveAll(dir)

	// Coordinator side: disk-backed store (the shared remote tier) and
	// the lease state machine, served over a real loopback listener.
	store, err := ckpt.New(ckpt.Options{Dir: filepath.Join(dir, "ckpt")})
	if err != nil {
		return nil, inj, err
	}
	cfg := sweep.Config{Scale: o.Scale, Benchmarks: o.Benchmarks, LeaseTTL: o.LeaseTTL}
	coord := sweep.NewCoordinator(cfg, nil, nil)
	ts := httptest.NewServer(sweep.NewServer(coord, store, nil, nil).Handler())
	defer ts.Close()

	// The kill hook: the injector decides whether a (cell, delivery) is
	// doomed, and the delivery's parity picks the crash window — before
	// the cell runs ("claimed": the lease dies holding nothing) or after
	// its records reached the coordinator ("appended": the classic crash
	// between journal append and completion).
	kill := func(cell sweep.Cell, delivery int, stage string) bool {
		if !inj.KillWorker(cell.String(), delivery) {
			return false
		}
		want := "appended"
		if delivery%2 == 1 {
			want = "claimed"
		}
		return stage == want
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.Timeout)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	stats := make([]sweep.WorkerStats, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := sweep.NewClient(ts.URL, nil)
			cl.Faults = inj
			stats[i], errs[i] = sweep.RunWorker(sweep.WorkerOptions{
				Client:   cl,
				ID:       fmt.Sprintf("w%d", i),
				Context:  ctx,
				Poll:     o.Poll,
				Progress: o.Progress,
				Faults:   inj,
				Kill:     kill,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, inj, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if !coord.Done() {
		return nil, inj, fmt.Errorf("workers exited with sweep incomplete: %+v", coord.Stats())
	}

	// Exactly-once accounting: every cell completed exactly once, no
	// matter how many kills, re-issues, and duplicate executions the
	// schedule produced; and when kills fired, re-issues must have too
	// (the kill path is live, not vacuous).
	cst := coord.Stats()
	if cst.Completions != uint64(cst.Cells) {
		return nil, inj, fmt.Errorf("exactly-once violated: %d completions for %d cells (%+v)",
			cst.Completions, cst.Cells, cst)
	}
	var abandons uint64
	for _, st := range stats {
		abandons += st.Abandons
	}
	if abandons > 0 && cst.Reissues == 0 {
		return nil, inj, fmt.Errorf("%d kills but no lease re-issues (%+v)", abandons, cst)
	}

	// Warm-checkpoint sharing: workers run without local disk tiers, so
	// any sweep at these scales must have mirrored deposits into the
	// coordinator store.
	if sst := store.Stats(); sst.Puts == 0 {
		return nil, inj, fmt.Errorf("no checkpoints reached the shared remote tier (%s)", sst)
	}

	// Merge, then render from the merged journal alone: byte-identical
	// artifacts, zero executions (the journal is complete).
	mergedPath := filepath.Join(dir, "merged.jsonl")
	if err := coord.WriteJournal(mergedPath); err != nil {
		return nil, inj, err
	}
	journal, err := os.ReadFile(mergedPath)
	if err != nil {
		return nil, inj, err
	}
	r := experiments.NewRunner(experiments.Options{
		Scale:      o.Scale,
		Benchmarks: o.Benchmarks,
		Journal:    mergedPath,
		CkptOff:    true,
	})
	defer r.Close()
	var buf bytes.Buffer
	if err := experiments.RenderArtifacts(r, &buf); err != nil {
		return nil, inj, fmt.Errorf("render from merged journal: %w", err)
	}
	if n := r.Executions(); n != 0 {
		return nil, inj, fmt.Errorf("rendering from the merged journal executed %d cells; journal incomplete", n)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		return nil, inj, fmt.Errorf("artifacts diverge from sequential run\n%s",
			DiffSummary("sequential", "distributed", golden, buf.Bytes()))
	}
	return journal, inj, nil
}
