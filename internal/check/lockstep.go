package check

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/vm"
)

// BatchSizes is the standard set of event-batch capacities the batch-
// invariance checks sweep: a degenerate one-event batch (true
// per-instruction delivery), a small prime that never divides chunk or
// block lengths evenly, a mid-sized batch, and a batch far larger than
// any chunk so every flush comes from a boundary other than
// batch-full. The first entry is BatchInvariance's reference.
var BatchSizes = []int{1, 3, 64, 4096}

// noLimit lets the stepped engine run its reference until it halts.
const noLimit = math.MaxUint64

// lane is one machine the stepped engine drives: a name for reports
// and, in event mode, the counting sink it runs under (nil in fast
// mode).
type lane struct {
	name  string
	m     *vm.Machine
	count *vm.CountingSink
}

// newLane loads prog into a fresh machine configured by cfg, in event
// mode when event is set.
func newLane(name string, prog *Program, cfg vm.Config, event bool) *lane {
	l := &lane{name: name, m: vm.New(cfg)}
	l.m.Load(prog.Image)
	if event {
		l.count = &vm.CountingSink{}
	}
	return l
}

// run executes up to n instructions on the lane's machine.
func (l *lane) run(n uint64) uint64 {
	if l.count == nil {
		return l.m.Run(n, nil)
	}
	return l.m.Run(n, l.count)
}

// eventsVsStats cross-checks an event-mode lane's delivered events
// against its machine's internal statistics ("stats agreement"):
// per-instruction events are the ground truth the timing path
// consumes, so their class counts must reconcile with the counters
// Dynamic Sampling monitors. A fast-mode lane passes trivially.
func (l *lane) eventsVsStats() (field, events, stat string, ok bool) {
	if l.count == nil {
		return "", "", "", true
	}
	st := l.m.Stats()
	for _, inv := range []struct {
		name         string
		events, stat uint64
	}{
		{"events delivered", l.count.Total, st.Instructions},
		{"branch events", l.count.ByClass[isa.ClassBranch], st.Branches},
		{"load events", l.count.ByClass[isa.ClassLoad], st.MemReads},
		{"store events", l.count.ByClass[isa.ClassStore], st.MemWrites},
		{"sys events", l.count.ByClass[isa.ClassSys], st.Syscalls},
	} {
		if inv.events != inv.stat {
			return "event stream vs stats: " + inv.name, fmt.Sprint(inv.events), fmt.Sprint(inv.stat), false
		}
	}
	return "", "", "", true
}

// stepped is the chunk-stepped differential engine behind every
// program-level check. It runs ref in chunks of o.Chunk, stopping when
// ref halts or has executed limit instructions, and after each chunk
// runs every variant lane for the same chunk and requires, against
// ref:
//
//   - the same number of instructions executed in the chunk;
//   - identical captured state (host statistics included per
//     o.CompareHostStats);
//   - for an event-mode variant, an event stream that reconciles with
//     its own statistics and, when ref runs in event mode too, event
//     counts (total and per class) identical to ref's.
//
// It returns the first divergence and the instructions ref executed.
// A ref that stops making progress before halting, or runs past
// o.MaxInstr, is an error. o.Hook runs after every sync point, with
// ref and the first variant, when there is a variant.
func stepped(check string, prog *Program, o Options, limit uint64, ref *lane, vs ...*lane) (*Divergence, uint64, error) {
	var total uint64
	for step := 0; ; step++ {
		chunk := min(o.Chunk, limit-total)
		na := ref.run(chunk)
		total += na
		report := func(v *lane, field, av, bv string) (*Divergence, uint64, error) {
			return &Divergence{
				Check: fmt.Sprintf("%s (%s vs %s)", check, ref.name, v.name),
				Seed:  prog.Seed, Step: step, Instr: total,
				Field: field, A: av, B: bv,
				Window: DisasmWindow(ref.m, ref.m.PC(), 6, 6),
			}, total, nil
		}
		var sa machineState
		if len(vs) > 0 {
			sa = capture(ref.m, o.CompareHostStats)
		}
		for _, v := range vs {
			if nb := v.run(chunk); na != nb {
				return report(v, "instructions executed in chunk", fmt.Sprint(na), fmt.Sprint(nb))
			}
			if field, av, bv, ok := sa.diff(capture(v.m, o.CompareHostStats)); !ok {
				return report(v, field, av, bv)
			}
			if field, av, bv, ok := v.eventsVsStats(); !ok {
				return report(v, field, av, bv)
			}
			if ref.count != nil && v.count != nil && *ref.count != *v.count {
				return report(v, "events delivered (total, by class)",
					fmt.Sprint(*ref.count), fmt.Sprint(*v.count))
			}
		}
		if ref.m.Halted() || total >= limit {
			return nil, total, nil
		}
		if na == 0 {
			return nil, total, fmt.Errorf("check: %s stalled at instr %d without halting (seed=%d)", check, total, prog.Seed)
		}
		if total > o.MaxInstr {
			return nil, total, fmt.Errorf("check: program did not halt within %d instructions (seed=%d)", o.MaxInstr, prog.Seed)
		}
		if o.Hook != nil && len(vs) > 0 {
			o.Hook(step, ref.m, vs[0].m)
		}
	}
}

// runToHalt drives m alone through the stepped engine until it halts,
// returning the instructions executed; a stall or an exhausted
// o.MaxInstr budget is an error.
func runToHalt(prog *Program, o Options, m *vm.Machine) (uint64, error) {
	_, n, err := stepped("run", prog, o, noLimit, &lane{name: "run", m: m})
	return n, err
}

// Lockstep runs prog through two machines — fast mode (nil sink) and
// event-generating mode (counting sink) — comparing the complete
// machine state at every sync point, and cross-checks the event stream
// against the VM's internal statistics.
//
// It returns the first divergence (nil if none) and the number of
// instructions the program executed.
func Lockstep(prog *Program, o Options) (*Divergence, uint64, error) {
	o.setDefaults()
	return stepped("lockstep", prog, o, noLimit,
		newLane("fast", prog, o.VM, false), newLane("event", prog, o.VM, true))
}

// ReplayDeterminism runs prog twice through identically configured and
// identically partitioned machines and requires bit-identical state at
// every sync point — including the host bookkeeping statistics, which
// ARE deterministic when the partitioning is fixed. This catches hidden
// nondeterminism (map-iteration effects, uninitialised state, host-time
// leakage) that the other checks could mask.
func ReplayDeterminism(prog *Program, o Options) (*Divergence, error) {
	o.setDefaults()
	div, _, err := stepped("replay-determinism", prog, o, noLimit,
		newLane("run", prog, o.VM, false), newLane("replay", prog, o.VM, false))
	return div, err
}

// BatchInvariance proves the batched event pipeline is invisible: it
// runs prog on a reference machine delivering one event per batch —
// true per-instruction delivery — and, in the same o.Chunk
// partitioning, on one machine at o.VM's own batch capacity and one per
// further entry in BatchSizes, comparing complete machine state and
// delivered event counts at every sync point. Any dependence of
// architectural state, vm.Stats, or the event stream on the batch
// capacity — a missed flush before a syscall, an event materialised
// with post-batch state, a dropped tail at Run return — is reported as
// a Divergence.
func BatchInvariance(prog *Program, o Options) (*Divergence, error) {
	o.setDefaults()
	withBatch := func(bs int) vm.Config {
		cfg := o.VM
		cfg.EventBatch = bs
		return cfg
	}
	ref := newLane(fmt.Sprintf("batch=%d", BatchSizes[0]), prog, withBatch(BatchSizes[0]), true)
	vs := []*lane{newLane("batch=default", prog, o.VM, true)}
	for _, bs := range BatchSizes[1:] {
		vs = append(vs, newLane(fmt.Sprintf("batch=%d", bs), prog, withBatch(bs), true))
	}
	div, _, err := stepped("batch-invariance", prog, o, noLimit, ref, vs...)
	return div, err
}

// ChunkAgreement runs prog under two different Run partitionings
// (o.Chunk vs chunkB) and requires the final architectural state and
// partition-insensitive statistics to agree: the Machine.Run contract
// says architectural behaviour is independent of how a long run is
// partitioned, and this check enforces it.
func ChunkAgreement(prog *Program, o Options, chunkB uint64) (*Divergence, error) {
	o.setDefaults()
	if chunkB == 0 {
		chunkB = 3*o.Chunk + 1
	}
	a := vm.New(o.VM)
	a.Load(prog.Image)
	b := vm.New(o.VM)
	b.Load(prog.Image)

	na, err := runToHalt(prog, o, a)
	if err != nil {
		return nil, err
	}
	ob := o
	ob.Chunk = chunkB
	nb, err := runToHalt(prog, ob, b)
	if err != nil {
		return nil, err
	}
	field, av, bv, ok := capture(a, false).diff(capture(b, false))
	if na != nb {
		field, av, bv, ok = "total instructions", fmt.Sprint(na), fmt.Sprint(nb), false
	}
	if !ok {
		return &Divergence{
			Check: "chunk-agreement", Seed: prog.Seed, Instr: na,
			Field: field, A: av, B: bv,
			Window: DisasmWindow(a, a.PC(), 6, 6),
		}, nil
	}
	return nil, nil
}
