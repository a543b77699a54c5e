package check

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
)

func TestCheckProgramManySeeds(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 30; seed++ {
		rep, div, err := CheckProgram(seed, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d:\n%v", seed, div)
		}
		if len(rep.Checks) != 5 {
			t.Fatalf("seed %d: ran %v, want 5 checks", seed, rep.Checks)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	a, b := Generate(42), Generate(42)
	if len(a.Image.Segments) != len(b.Image.Segments) || a.Image.Entry != b.Image.Entry {
		t.Fatal("image shape differs across generations")
	}
	wa, wb := a.Image.Segments[0].Words, b.Image.Segments[0].Words
	if len(wa) != len(wb) {
		t.Fatalf("word count %d != %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("word %d differs: %#x != %#x", i, wa[i], wb[i])
		}
	}
	c := Generate(43)
	if len(c.Image.Segments[0].Words) == len(wa) && c.Image.Entry == a.Image.Entry {
		// Different seeds may coincide in shape, but identical length AND
		// identical content would mean the seed is ignored.
		same := true
		for i, w := range c.Image.Segments[0].Words {
			if w != wa[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds generated identical programs")
		}
	}
}

// TestGeneratedProgramsExerciseSubsystems asserts the generator's
// programs collectively drive every VM statistic the paper's metrics
// monitor — otherwise the differential checks would be vacuous.
func TestGeneratedProgramsExerciseSubsystems(t *testing.T) {
	t.Parallel()
	var agg vm.Stats
	var phases int
	for seed := uint64(1); seed <= 25; seed++ {
		prog := Generate(seed)
		m := vm.New(GenVMConfig())
		m.Load(prog.Image)
		if _, err := runToHalt(prog, DefaultOptions(), m); err != nil {
			t.Fatal(err)
		}
		s := m.Stats()
		agg.Instructions += s.Instructions
		agg.MemReads += s.MemReads
		agg.MemWrites += s.MemWrites
		agg.Branches += s.Branches
		agg.TakenBr += s.TakenBr
		agg.PageFaults += s.PageFaults
		agg.TLBRefills += s.TLBRefills
		agg.Syscalls += s.Syscalls
		agg.TCInvalidations += s.TCInvalidations
		agg.TCTranslations += s.TCTranslations
		agg.IOOps += s.IOOps
		agg.DiskReads += s.DiskReads
		agg.DiskWrites += s.DiskWrites
		agg.ConsoleBytes += s.ConsoleBytes
		phases += len(m.PhaseLog())
	}
	for name, v := range map[string]uint64{
		"instructions":     agg.Instructions,
		"mem reads":        agg.MemReads,
		"mem writes":       agg.MemWrites,
		"branches":         agg.Branches,
		"taken branches":   agg.TakenBr,
		"page faults":      agg.PageFaults,
		"TLB refills":      agg.TLBRefills,
		"syscalls":         agg.Syscalls,
		"TC invalidations": agg.TCInvalidations,
		"TC translations":  agg.TCTranslations,
		"I/O ops":          agg.IOOps,
		"disk reads":       agg.DiskReads,
		"disk writes":      agg.DiskWrites,
		"console bytes":    agg.ConsoleBytes,
		"phase marks":      uint64(phases),
	} {
		if v == 0 {
			t.Errorf("generated programs never produced %s", name)
		}
	}
}

// TestLockstepReportsInjectedRegisterFault corrupts one machine's
// architectural state mid-run and requires the differ to report a
// divergence with an actionable window, proving the comparison is live.
func TestLockstepReportsInjectedRegisterFault(t *testing.T) {
	t.Parallel()
	prog := Generate(1)
	o := DefaultOptions()
	injected := false
	o.Hook = func(step int, fast, event *vm.Machine) {
		if !injected {
			injected = true
			// r15 is outside every register class generated code writes,
			// so the fault cannot be masked by later instructions.
			event.SetReg(15, 0xdeadbeef)
		}
	}
	div, _, err := Lockstep(prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("program halted before the fault could be injected")
	}
	if div == nil {
		t.Fatal("differ missed an injected register corruption")
	}
	if div.Field != "reg[r15]" {
		t.Fatalf("divergence field = %q, want reg[r15]", div.Field)
	}
	if !strings.Contains(div.Window, "=>") {
		t.Fatalf("divergence window missing pc marker:\n%s", div.Window)
	}
	if !strings.Contains(div.Error(), "lockstep") {
		t.Fatalf("report does not identify the check: %s", div.Error())
	}
}

// TestLockstepReportsMissedTCInvalidation emulates the classic DBT bug
// the harness exists to catch: guest code is modified but one machine's
// translation cache keeps executing the stale translation. The injector
// patches the probe slot in BOTH machines' memory without telling
// either translation cache (Populate bypasses SMC detection), then
// silently drops only the fast machine's translations by restoring a
// *serialized* snapshot round-trip (a deserialized snapshot carries
// block PCs only, so the restore re-decodes them from the patched
// memory image). The fast machine
// picks up the new code, the event machine keeps running the stale
// block — exactly what a skipped invalidation does — and the differ
// must report the resulting architectural divergence. The probe slot
// lives on a page no generated store touches, so the program's own SMC
// traffic cannot legitimately invalidate the stale block and hide the
// fault.
func TestLockstepReportsMissedTCInvalidation(t *testing.T) {
	t.Parallel()
	prog := Generate(1)
	o := DefaultOptions()
	o.CompareHostStats = false // the divergence must be architectural
	patched := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1008})
	injected := false
	o.Hook = func(step int, fast, event *vm.Machine) {
		if !injected {
			injected = true
			fast.Mem().Populate(prog.ProbeSlot, patched)
			event.Mem().Populate(prog.ProbeSlot, patched)
			// Serialize/deserialize so the restore re-decodes every
			// block from the patched memory: fast retranslates.
			var buf bytes.Buffer
			if _, err := fast.Snapshot().WriteTo(&buf); err != nil {
				t.Error(err)
				return
			}
			snap, err := vm.ReadSnapshot(&buf)
			if err != nil {
				t.Error(err)
				return
			}
			if err := fast.Restore(snap); err != nil {
				t.Error(err)
			}
		}
	}
	div, _, err := Lockstep(prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("program halted before the fault could be injected")
	}
	if div == nil {
		t.Fatal("differ missed a stale-translation (skipped invalidation) fault")
	}
	t.Logf("reported divergence:\n%v", div)
}

func TestPolicyDeterminism(t *testing.T) {
	t.Parallel()
	if err := PolicyEquivalence("gzip", core.Options{Scale: 50_000}, nil, ReplayVariants()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointEquivalencePolicies(t *testing.T) {
	t.Parallel()
	if err := PolicyEquivalence("gzip", core.Options{Scale: 50_000}, nil, CkptVariants()); err != nil {
		t.Fatal(err)
	}
}

func TestDisasmWindowRendersAroundPC(t *testing.T) {
	t.Parallel()
	prog := Generate(7)
	m := vm.New(GenVMConfig())
	m.Load(prog.Image)
	m.Run(100, nil)
	w := DisasmWindow(m, m.PC(), 4, 4)
	if !strings.Contains(w, "=>") {
		t.Fatalf("window missing pc marker:\n%s", w)
	}
	if len(strings.Split(strings.TrimSpace(w), "\n")) < 9 {
		t.Fatalf("window too small:\n%s", w)
	}
}

func TestBatchInvarianceManySeeds(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 20; seed++ {
		div, err := BatchInvariance(Generate(seed), DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d:\n%v", seed, div)
		}
	}
}

func TestPolicyBatchInvariance(t *testing.T) {
	t.Parallel()
	if err := PolicyEquivalence("gzip", core.Options{Scale: 50_000}, nil, BatchVariants()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckProgramStressConfig runs the full differential suite under a
// deliberately hostile machine configuration: a translation cache so
// small it flushes constantly (chains and superblock traces die almost
// as soon as they form), a tiny TLB, per-event batch delivery, and a
// chunk of 1 so every sync point lands mid-everything. Any acceleration
// state that leaks across a flush, trace teardown, or one-instruction
// Run boundary shows up as a lockstep or replay divergence here.
func TestCheckProgramStressConfig(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow")
	}
	opts := DefaultOptions()
	opts.VM.TCMaxBlocks = 3
	opts.VM.TLBEntries = 4
	opts.VM.EventBatch = 1
	opts.Chunk = 1
	opts.MaxInstr = 80_000
	for seed := uint64(1); seed <= 3; seed++ {
		rep, div, err := CheckProgram(seed, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d:\n%v", seed, div)
		}
		if len(rep.Checks) == 0 {
			t.Fatalf("seed %d: no checks ran", seed)
		}
	}
}
