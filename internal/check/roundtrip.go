package check

import (
	"bytes"
	"fmt"

	"repro/internal/vm"
)

// SnapshotRoundTrip checks the VM's snapshot/restore machinery against
// an uninterrupted run, through the in-memory snapshot (see roundTrip).
// Donor-vs-restored comparisons use architectural state and
// partition-insensitive statistics: the VM documents that
// translation-cache and instruction-TLB bookkeeping may differ after an
// in-memory restore (the DBT retranslates), and the checker enforces
// that *only* those may.
func SnapshotRoundTrip(prog *Program, o Options) (*Divergence, error) {
	return roundTrip("snapshot-roundtrip", prog, o, false)
}

// SerializedRoundTrip checks the checkpoint store's persistence path:
// machine state must survive serialization bit-for-bit. It is the
// strict sibling of SnapshotRoundTrip — the snapshot passes through
// WriteTo / ReadSnapshot, and because a serialized snapshot captures
// the translation-cache block set, the donor-vs-restored comparisons
// include the full statistics record (translation-cache and TLB
// counters included), not the partition-normalised subset.
func SerializedRoundTrip(prog *Program, o Options) (*Divergence, error) {
	return roundTrip("serialized-roundtrip", prog, o, true)
}

// roundTrip is the body both round-trip checks share:
//
//  1. an uninterrupted machine runs prog to completion;
//  2. a donor machine runs halfway, snapshots (through WriteTo /
//     ReadSnapshot when serialize is set), and continues — its final
//     state must match the uninterrupted run (taking a snapshot must
//     not perturb the guest);
//  3. the snapshot is restored into a *fresh* machine whose state right
//     after the restore must match the donor's at the snapshot point,
//     and whose resumed run, with the donor's partitioning, must reach
//     the donor's final state and, architecturally, the uninterrupted
//     run's.
//
// Host statistics enter the donor-vs-restored comparisons only when
// serialize is set.
func roundTrip(check string, prog *Program, o Options, serialize bool) (*Divergence, error) {
	o.setDefaults()
	report := func(m *vm.Machine, step int, instr uint64, field, av, bv string) *Divergence {
		return &Divergence{
			Check: check, Seed: prog.Seed, Step: step, Instr: instr,
			Field: field, A: av, B: bv,
			Window: DisasmWindow(m, m.PC(), 6, 6),
		}
	}

	// Uninterrupted reference (its partitioning differs from the donor's,
	// so it is only comparable architecturally).
	ref := vm.New(o.VM)
	ref.Load(prog.Image)
	total, err := runToHalt(prog, o, ref)
	if err != nil {
		return nil, err
	}
	final := capture(ref, false)

	// Donor: run halfway, snapshot, continue.
	donor := newLane("donor", prog, o.VM, false)
	_, executed, err := stepped(check, prog, o, total/2, donor)
	if err != nil {
		return nil, err
	}
	snap := donor.m.Snapshot()
	if serialize {
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("check: serialize failed (seed=%d): %v", prog.Seed, err)
		}
		if snap, err = vm.ReadSnapshot(&buf); err != nil {
			return nil, fmt.Errorf("check: deserialize failed (seed=%d): %v", prog.Seed, err)
		}
	}
	atSnap := capture(donor.m, serialize)
	if _, err := runToHalt(prog, o, donor.m); err != nil {
		return nil, err
	}
	donorFinal := capture(donor.m, serialize)
	if field, av, bv, ok := capture(donor.m, false).diff(final); !ok {
		return report(donor.m, 1, executed, "snapshot perturbed the run: "+field, av, bv), nil
	}

	// Fresh machine from the snapshot: exact at the snapshot point,
	// exact after resuming with the donor's partitioning.
	fresh := vm.New(o.VM)
	if err := fresh.Restore(snap); err != nil {
		return nil, fmt.Errorf("check: restore failed (seed=%d): %v", prog.Seed, err)
	}
	if field, av, bv, ok := capture(fresh, serialize).diff(atSnap); !ok {
		return report(fresh, 2, executed, "state after restore: "+field, av, bv), nil
	}
	if _, err := runToHalt(prog, o, fresh); err != nil {
		return nil, err
	}
	if field, av, bv, ok := capture(fresh, serialize).diff(donorFinal); !ok {
		return report(fresh, 3, executed, "resumed run diverged from the donor: "+field, av, bv), nil
	}
	if field, av, bv, ok := capture(fresh, false).diff(final); !ok {
		return report(fresh, 4, executed, "resumed run diverged from uninterrupted run: "+field, av, bv), nil
	}
	return nil, nil
}
