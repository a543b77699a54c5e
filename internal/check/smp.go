package check

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"repro/internal/smp"
	"repro/internal/vm"
	"repro/internal/workload"
)

// SMPOptions configures SMPEquivalence.
type SMPOptions struct {
	// Scale is the workload scale divisor for quanta > 1 (default
	// 400_000, giving per-guest budgets in the 100k–600k range).
	Scale int
	// TinyScale is the scale divisor used when quantum == 1: one
	// goroutine spawn and one barrier per instruction makes large
	// budgets pointless there (default 8_000_000).
	TinyScale int
	// GuestCounts lists the system sizes to check (default {2, 8}).
	GuestCounts []int
	// Quanta lists rendezvous quantum sizes (default {1, 128, 10000}).
	Quanta []uint64
	// Procs lists GOMAXPROCS values for the parallel runs (default
	// {1, 2, 8}); the sequential golden runs at the ambient setting.
	Procs []int
	// Benchmarks is the guest workload pool, cycled to fill a system
	// (default a mix of integer and memory-bound FP benchmarks).
	Benchmarks []string
	// Progress, when non-nil, receives one line per configuration.
	Progress io.Writer
}

func (o *SMPOptions) setDefaults() {
	if o.Scale <= 0 {
		o.Scale = 400_000
	}
	if o.TinyScale <= 0 {
		o.TinyScale = 8_000_000
	}
	if len(o.GuestCounts) == 0 {
		o.GuestCounts = []int{2, 8}
	}
	if len(o.Quanta) == 0 {
		o.Quanta = []uint64{1, 128, 10_000}
	}
	if len(o.Procs) == 0 {
		o.Procs = []int{1, 2, 8}
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"gzip", "mcf", "swim", "perlbmk", "twolf", "art", "bzip2", "equake"}
	}
}

// smpGuest is one guest slot of a configuration: the workload and its
// instruction budget.
type smpGuest struct {
	name   string
	scale  int
	budget uint64
}

// buildSystem constructs a fresh system with freshly built images —
// workload generation is deterministic, so every system built from the
// same guest list starts bit-identical.
func buildSystem(guests []smpGuest, quantum uint64, sequential bool) (*smp.System, error) {
	sys := smp.New(smp.Config{Quantum: quantum, Sequential: sequential})
	for i, g := range guests {
		spec, err := workload.ByName(g.name)
		if err != nil {
			return nil, err
		}
		img, _ := workload.BuildScaled(spec, g.scale)
		sys.AddGuest(fmt.Sprintf("%s#%d", g.name, i), img, g.budget)
	}
	return sys, nil
}

// smpFingerprint drives the three execution paths — fast, timed, and
// system-level DynamicSample — each on a fresh system, and renders
// every observable into one deterministic byte string: per-guest
// architectural statistics, core snapshots (cycles, retirement
// counters, cache/TLB stats and replacement-state digests, including
// the shared L2), interval IPCs bit-exact via Float64bits, estimates,
// and the rendered report artifact.
func smpFingerprint(guests []smpGuest, quantum uint64, sequential bool) (string, error) {
	var b strings.Builder

	renderSystem := func(sys *smp.System, ests []smp.Estimate) {
		for _, g := range sys.Guests() {
			fmt.Fprintf(&b, "guest %s executed=%d stats=%+v\n", g.Name, g.Executed(), g.Machine.Stats())
			fmt.Fprintf(&b, "guest %s core=%+v\n", g.Name, g.Core.Snapshot())
		}
		fmt.Fprintf(&b, "sharedL2 stats=%+v digest=%016x\n", sys.SharedL2().Stats(), sys.SharedL2().Digest())
		b.WriteString(sys.Report(ests))
	}

	var maxBudget uint64
	for _, g := range guests {
		if g.budget > maxBudget {
			maxBudget = g.budget
		}
	}

	// Fast path: no events, no cores — the schedule must still land
	// every guest on identical architectural state and budgets.
	b.WriteString("=== path fast\n")
	sys, err := buildSystem(guests, quantum, sequential)
	if err != nil {
		return "", err
	}
	for !sys.Done() {
		sys.RunFast(maxBudget/4 + 1)
	}
	renderSystem(sys, nil)

	// Timed path: full detail, shared-L2 coupling live in every
	// quantum; interval IPCs pin the cycle trajectories bit-exactly.
	b.WriteString("=== path timed\n")
	if sys, err = buildSystem(guests, quantum, sequential); err != nil {
		return "", err
	}
	for round := 0; !sys.Done(); round++ {
		ipcs := sys.RunTimed(maxBudget/4 + 1)
		fmt.Fprintf(&b, "interval %d ipcs=[", round)
		for _, ipc := range ipcs {
			fmt.Fprintf(&b, " %016x", math.Float64bits(ipc))
		}
		b.WriteString(" ]\n")
	}
	renderSystem(sys, nil)

	// DynamicSample path: mode switching driven by the summed VM
	// statistics, settle/warm/detail interval structure, estimates.
	b.WriteString("=== path dynamic\n")
	if sys, err = buildSystem(guests, quantum, sequential); err != nil {
		return "", err
	}
	ests, err := sys.DynamicSample(vm.MetricCPU, 300, maxBudget/12+1, 3)
	if err != nil {
		return "", err
	}
	renderSystem(sys, ests)
	return b.String(), nil
}

// SMPEquivalence pins the parallel SMP scheduler's whole contract: for
// every configured guest count and rendezvous quantum, the parallel
// barrier schedule must produce byte-identical statistics, core
// snapshots (including shared-L2 replacement state), interval IPCs,
// Dynamic Sampling estimates, and rendered reports to the sequential
// round-robin reference schedule — at every GOMAXPROCS setting. Run it
// under -race to also prove the rendezvous and replay pipeline are
// properly synchronized.
func SMPEquivalence(o SMPOptions) error {
	o.setDefaults()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, count := range o.GuestCounts {
		for _, quantum := range o.Quanta {
			scale := o.Scale
			if quantum == 1 {
				scale = o.TinyScale
			}
			guests := make([]smpGuest, count)
			for i := range guests {
				name := o.Benchmarks[i%len(o.Benchmarks)]
				spec, err := workload.ByName(name)
				if err != nil {
					return fmt.Errorf("smp-equivalence: %w", err)
				}
				guests[i] = smpGuest{name: name, scale: scale, budget: spec.ScaledInstr(scale)}
			}

			golden, err := smpFingerprint(guests, quantum, true)
			if err != nil {
				return fmt.Errorf("smp-equivalence: sequential golden (guests=%d quantum=%d): %w",
					count, quantum, err)
			}
			for _, procs := range o.Procs {
				prev := runtime.GOMAXPROCS(procs)
				got, err := smpFingerprint(guests, quantum, false)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					return fmt.Errorf("smp-equivalence: parallel (guests=%d quantum=%d procs=%d): %w",
						count, quantum, procs, err)
				}
				if got != golden {
					return fmt.Errorf("smp-equivalence: parallel schedule diverged from sequential "+
						"(guests=%d quantum=%d GOMAXPROCS=%d), %s",
						count, quantum, procs, DiffSummary("sequential", "parallel", []byte(golden), []byte(got)))
				}
				if o.Progress != nil {
					fmt.Fprintf(o.Progress, "smp-equivalence: guests=%d quantum=%d procs=%d ok (%d bytes)\n",
						count, quantum, procs, len(got))
				}
			}
		}
	}
	return nil
}
