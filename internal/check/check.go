// Package check is the correctness harness for the simulator: a
// differential-execution and invariant-checking subsystem.
//
// Dynamic Sampling's premise is that the fast functional VM and the
// event-generating timing path execute the same guest program with
// identical architectural outcomes, that snapshot/restore and replayed
// sessions reproduce runs bit-for-bit, and that host-side mechanisms
// (event batching, checkpoints, observability) never reach a result.
// This package proves those equivalences continuously instead of
// assuming them, through one engine per comparison shape:
//
//   - Generate builds seeded random guest programs exercising branches,
//     paging, self-modifying code, syscalls, and device I/O;
//   - one chunk-stepped engine drives a reference machine and variant
//     machines in bounded chunks and compares PC, registers, memory
//     digest, devices, and vm.Stats at every sync point, validating
//     every event-mode variant's event stream against its statistics
//     and the reference's event counts. Lockstep (fast vs event mode),
//     ReplayDeterminism (a second identical run), and BatchInvariance
//     (one event per batch vs every capacity in BatchSizes) are variant
//     lists over it; ChunkAgreement requires the final state to be
//     independent of how execution is partitioned into Run calls;
//   - SnapshotRoundTrip and SerializedRoundTrip share one body:
//     snapshot mid-run (through WriteTo/ReadSnapshot for the latter),
//     restore into a fresh machine, resume, and require the state to
//     match the donor and an uninterrupted run;
//   - PolicyEquivalence replays full sampling sessions for every policy
//     (FullTiming, SMARTS, SimPoint, Dynamic, Stratified, RankedSet)
//     once per PolicyVariant — replay, batch capacity, obs attached,
//     checkpoint store cold and warm — and requires every Result to be
//     bit-identical to the reference run's, field by field.
//
// A reported Divergence carries the first differing field and a
// disassembled window around the PC where the runs disagreed, so a
// failure is directly actionable: re-run cmd/diffcheck with the same
// seed to reproduce it.
package check

import (
	"fmt"

	"repro/internal/vm"
)

// Options configures the differential checks.
type Options struct {
	// Chunk is the sync-point granularity in instructions (default 509;
	// deliberately prime and smaller than most loops so chunk
	// boundaries land mid-block and exercise the DBT resume path).
	Chunk uint64
	// MaxInstr bounds any single run; a generated program that has not
	// halted by then is reported as an error (default 2M).
	MaxInstr uint64
	// VM configures the machines under test. The zero value selects a
	// small span/TLB/TC configuration sized to the generated programs
	// so TLB conflicts and translation-cache flushes actually occur.
	VM vm.Config
	// CompareHostStats includes host-side bookkeeping statistics
	// (translation-cache and TLB counters) in lockstep and replay
	// comparisons. It defaults to true via DefaultOptions; fault-
	// injection tests disable it to demonstrate purely architectural
	// divergences.
	CompareHostStats bool
	// Hook, when non-nil, runs after every sync point of the
	// chunk-stepped checks (Lockstep, ReplayDeterminism,
	// BatchInvariance) with the reference machine and the first
	// variant. Tests use it to inject faults into one machine and prove
	// the differ reports them.
	Hook func(step int, ref, variant *vm.Machine)
}

// DefaultOptions returns the standard configuration for checking
// generated programs.
func DefaultOptions() Options {
	return Options{
		Chunk:            509,
		MaxInstr:         2 << 20,
		VM:               GenVMConfig(),
		CompareHostStats: true,
	}
}

func (o *Options) setDefaults() {
	if o.Chunk == 0 {
		o.Chunk = 509
	}
	if o.MaxInstr == 0 {
		o.MaxInstr = 2 << 20
	}
	if o.VM.MemSpan == 0 {
		o.VM = GenVMConfig()
	}
}

// Divergence reports the first disagreement a differential check found.
type Divergence struct {
	Check string // which check reported it
	Seed  uint64 // generator seed (0 when not from a generated program)
	Step  int    // sync-point index within the check
	Instr uint64 // instructions executed at the sync point
	Field string // first differing field
	A, B  string // rendered values from the two runs
	// Window is a disassembled window around the PC of the first run at
	// the divergence point.
	Window string
}

// Error implements error with a multi-line, actionable report.
func (d *Divergence) Error() string {
	return fmt.Sprintf(
		"check: %s divergence (seed=%d step=%d instr=%d)\n  field: %s\n  run A: %s\n  run B: %s\n%s",
		d.Check, d.Seed, d.Step, d.Instr, d.Field, d.A, d.B, d.Window)
}

// ProgramReport summarises a clean CheckProgram pass.
type ProgramReport struct {
	Seed   uint64
	Instr  uint64 // instructions the program executes to completion
	Checks []string
}

// CheckProgram generates the program for seed and runs every
// program-level differential check against it. It returns a nil
// Divergence and nil error when all checks pass.
func CheckProgram(seed uint64, o Options) (*ProgramReport, *Divergence, error) {
	o.setDefaults()
	prog := Generate(seed)
	rep := &ProgramReport{Seed: seed}

	div, instr, err := Lockstep(prog, o)
	if div != nil || err != nil {
		return nil, div, err
	}
	rep.Instr = instr
	rep.Checks = append(rep.Checks, "lockstep")

	if div, err := SnapshotRoundTrip(prog, o); div != nil || err != nil {
		return nil, div, err
	}
	rep.Checks = append(rep.Checks, "snapshot-roundtrip")

	if div, err := SerializedRoundTrip(prog, o); div != nil || err != nil {
		return nil, div, err
	}
	rep.Checks = append(rep.Checks, "serialized-roundtrip")

	if div, err := ReplayDeterminism(prog, o); div != nil || err != nil {
		return nil, div, err
	}
	rep.Checks = append(rep.Checks, "replay-determinism")

	if div, err := ChunkAgreement(prog, o, 3*o.Chunk+1); div != nil || err != nil {
		return nil, div, err
	}
	rep.Checks = append(rep.Checks, "chunk-agreement")

	return rep, nil, nil
}
