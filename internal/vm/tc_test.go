package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestSelfModifyingCodeInvalidation overwrites an executed routine and
// checks both architectural correctness (the new code runs) and the
// translation-cache invalidation accounting (the CPU metric).
func TestSelfModifyingCodeInvalidation(t *testing.T) {
	// Routine at 0x3000 initially returns 1; main patches it to return
	// 2 and calls it again.
	rb := asm.NewBuilder(0x3000)
	rb.I(isa.OpMovi, 3, 0, 1)
	rb.Jalr(0, 30, 0)
	routine := rb.Words()

	pb := asm.NewBuilder(0x3000) // same base: position-independent patch
	pb.I(isa.OpMovi, 3, 0, 2)
	pb.Jalr(0, 30, 0)
	patch := pb.Words()

	b := asm.NewBuilder(0x1000)
	b.Movi(28, 0x3000)
	b.Jalr(30, 28, 0) // first call
	b.R(isa.OpAdd, 4, 3, 0)
	// Patch instruction 0 of the routine.
	b.Movi(5, int64(patch[0]))
	b.St(5, 28, 0)
	b.Jalr(30, 28, 0) // second call
	b.Halt()

	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	img.AddSegment(0x3000, routine)
	m := New(Config{MemSpan: 64 << 20})
	m.Load(img)
	m.RunToCompletion(0, nil)

	if m.Reg(4) != 1 || m.Reg(3) != 2 {
		t.Fatalf("first=%d second=%d, want 1,2", m.Reg(4), m.Reg(3))
	}
	if m.Stats().TCInvalidations == 0 {
		t.Fatal("store to executed code must invalidate translations")
	}
}

// TestCapacityFlush forces the translation cache over capacity and
// checks the Dynamo-style full flush fires and execution stays correct.
func TestCapacityFlush(t *testing.T) {
	// A long chain of tiny blocks: jmp +8 over many pages... simpler:
	// alternate many branch-separated blocks in a loop.
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 3) // passes
	b.Label("again")
	for i := 0; i < 300; i++ {
		b.Nop()
		b.Br(isa.OpBeq, 0, 0, "t"+itoa(i)) // always taken: block boundary
		b.Label("t" + itoa(i))
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Br(isa.OpBne, 1, 0, "again")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := New(Config{MemSpan: 64 << 20, TCMaxBlocks: 64})
	m.Load(img)
	m.RunToCompletion(0, nil)
	st := m.Stats()
	if st.TCFlushes == 0 {
		t.Fatal("capacity flush never fired")
	}
	if st.TCInvalidations < uint64(st.TCFlushes)*32 {
		t.Fatalf("flushes should invalidate many blocks: %d flushes, %d invalidations",
			st.TCFlushes, st.TCInvalidations)
	}
	if m.Reg(1) != 0 {
		t.Fatal("execution incorrect under flushes")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// fibProgram computes fib(20) iteratively; used by equivalence tests.
func fibProgram() *asm.Image {
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 0)  // a
	b.Movi(2, 1)  // b
	b.Movi(3, 20) // n
	b.Label("loop")
	b.R(isa.OpAdd, 4, 1, 2)
	b.R(isa.OpAdd, 1, 2, 0)
	b.R(isa.OpAdd, 2, 4, 0)
	b.I(isa.OpAddi, 3, 3, -1)
	b.Br(isa.OpBne, 3, 0, "loop")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	return img
}

// TestPartitionInvariance checks that architectural state and guest-
// visible statistics are identical no matter how a run is sliced into
// Run calls (the interval engine relies on this).
func TestPartitionInvariance(t *testing.T) {
	reference := New(Config{MemSpan: 64 << 20})
	reference.Load(fibProgram())
	refN := reference.RunToCompletion(0, nil)
	refStats := reference.Stats()

	f := func(chunks []uint8) bool {
		m := New(Config{MemSpan: 64 << 20})
		m.Load(fibProgram())
		for _, c := range chunks {
			m.Run(uint64(c%17)+1, nil)
			if m.Halted() {
				break
			}
		}
		m.RunToCompletion(0, nil)
		st := m.Stats()
		return m.Halted() &&
			st.Instructions == refN &&
			m.Reg(1) == reference.Reg(1) &&
			st.MemReads == refStats.MemReads &&
			st.MemWrites == refStats.MemWrites &&
			st.Syscalls == refStats.Syscalls &&
			st.PageFaults == refStats.PageFaults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if reference.Reg(1) != 6765 {
		t.Fatalf("fib(20) = %d", reference.Reg(1))
	}
}

// TestEventModeEquivalence checks that event generation is observation
// only: fast mode and event mode produce identical architectural results
// and guest statistics.
func TestEventModeEquivalence(t *testing.T) {
	fast := New(Config{MemSpan: 64 << 20})
	fast.Load(fibProgram())
	fast.RunToCompletion(0, nil)

	var sink CountingSink
	ev := New(Config{MemSpan: 64 << 20})
	ev.Load(fibProgram())
	ev.RunToCompletion(0, &sink)

	if fast.Reg(1) != ev.Reg(1) {
		t.Fatal("architectural divergence between modes")
	}
	fs, es := fast.Stats(), ev.Stats()
	if fs != es {
		t.Fatalf("stats diverge:\nfast  %+v\nevent %+v", fs, es)
	}
	if sink.Total != es.Instructions {
		t.Fatalf("events %d != instructions %d", sink.Total, es.Instructions)
	}
}

// TestEventContents validates the fields of generated events.
func TestEventContents(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 0x2000)
	b.St(1, 1, 0)
	b.Ld(2, 1, 0)
	b.Br(isa.OpBeq, 0, 0, "next")
	b.Label("next")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := New(Config{MemSpan: 64 << 20})
	m.Load(img)

	var events []Event
	m.RunToCompletion(0, BatchFunc(func(evs []Event) { events = append(events, evs...) }))

	if len(events) != 5 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].PC != 0x1000 || events[0].NextPC != 0x1008 {
		t.Fatalf("event0 pc=%#x next=%#x", events[0].PC, events[0].NextPC)
	}
	st := events[1]
	if st.Class != isa.ClassStore || st.MemAddr != 0x2000 {
		t.Fatalf("store event %+v", st)
	}
	ld := events[2]
	if ld.Class != isa.ClassLoad || ld.MemAddr != 0x2000 || ld.Rd != 2 {
		t.Fatalf("load event %+v", ld)
	}
	br := events[3]
	if br.Class != isa.ClassBranch || !br.Taken || br.Target != br.PC+8 {
		t.Fatalf("branch event %+v", br)
	}
	if events[4].Class != isa.ClassHalt {
		t.Fatalf("last event %+v", events[4])
	}
}

// TestBlockChainingCorrectness runs a branchy loop and verifies the
// chained fast path computes the same result as an unchained machine
// with a tiny translation cache (constant re-translation).
func TestBlockChainingCorrectness(t *testing.T) {
	prog := func() *asm.Image {
		b := asm.NewBuilder(0x1000)
		b.Movi(1, 500)
		b.Movi(2, 0x9e3779b9)
		b.Label("loop")
		b.I(isa.OpSlli, 3, 2, 2)
		b.R(isa.OpAdd, 2, 2, 3)
		b.I(isa.OpAddi, 2, 2, 1)
		b.I(isa.OpSrli, 3, 2, 63)
		b.Br(isa.OpBne, 3, 0, "odd")
		b.I(isa.OpAddi, 4, 4, 1)
		b.Jmp("next")
		b.Label("odd")
		b.I(isa.OpAddi, 5, 5, 1)
		b.Label("next")
		b.I(isa.OpAddi, 1, 1, -1)
		b.Br(isa.OpBne, 1, 0, "loop")
		b.Halt()
		img := &asm.Image{Entry: 0x1000}
		img.AddSegment(0x1000, b.Words())
		return img
	}
	big := New(Config{MemSpan: 64 << 20})
	big.Load(prog())
	big.RunToCompletion(0, nil)
	tiny := New(Config{MemSpan: 64 << 20, TCMaxBlocks: 2})
	tiny.Load(prog())
	tiny.RunToCompletion(0, nil)
	for _, r := range []int{2, 4, 5} {
		if big.Reg(r) != tiny.Reg(r) {
			t.Fatalf("r%d: chained %d vs tiny-TC %d", r, big.Reg(r), tiny.Reg(r))
		}
	}
	if tiny.Stats().TCFlushes == 0 {
		t.Fatal("tiny TC should have flushed")
	}
}

func TestIllegalInstructionPanics(t *testing.T) {
	m := New(Config{MemSpan: 64 << 20})
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, []uint64{0xfe}) // invalid opcode
	m.Load(img)
	defer func() {
		if recover() == nil {
			t.Fatal("illegal instruction must panic")
		}
	}()
	m.Run(1, nil)
}

func TestTLBRefillCounting(t *testing.T) {
	// Touch more pages than the TLB holds, twice: the second pass must
	// also refill (capacity), and every refill counts as an exception.
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 0x100_0000)
	b.Movi(2, 64) // pages, TLB has 16 entries
	b.Label("loop")
	b.Ld(3, 1, 0)
	b.I(isa.OpAddi, 1, 1, 4096)
	b.I(isa.OpAddi, 2, 2, -1)
	b.Br(isa.OpBne, 2, 0, "loop")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := New(Config{MemSpan: 64 << 20, TLBEntries: 16})
	m.Load(img)
	m.RunToCompletion(0, nil)
	st := m.Stats()
	if st.TLBRefills < 64 {
		t.Fatalf("TLB refills = %d, want >= 64", st.TLBRefills)
	}
	if st.Exceptions < st.TLBRefills {
		t.Fatal("TLB refills must count toward exceptions")
	}
}
