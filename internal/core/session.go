// Package core couples the functional VM front-end with the timing
// simulator back-end — the paper's central mechanism. A Session owns one
// benchmark run: it loads the generated guest program into a VM, attaches
// a timing core, meters modelled host cost, and exposes the mode-switch
// operations sampling policies are built from:
//
//	RunFast        full-speed VM execution (no events)
//	RunFuncWarm    events feed cache/TLB/predictor warming only (SMARTS)
//	RunDetailWarm  events feed the detailed core, IPC not recorded
//	RunTimed       events feed the detailed core, interval IPC measured
//	RunProfile     events feed a caller-supplied profiler (SimPoint BBVs)
//
// Every operation advances the same guest — sampling policies differ
// only in how they schedule these modes over the instruction budget.
package core

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/ckpt"
	"repro/internal/hostcost"
	"repro/internal/obs"
	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Options configures a Session.
type Options struct {
	// Scale divides the paper's instruction budgets (default 20000).
	Scale int
	// TotalInstr overrides the scaled budget when non-zero.
	TotalInstr uint64
	// IntervalLen overrides the derived base interval when non-zero.
	IntervalLen uint64
	// Timing overrides the Table 1 core configuration when non-nil.
	Timing *timing.Config
	// VM overrides the VM configuration.
	VM vm.Config
	// Costs overrides the host-cost table when non-nil.
	Costs *hostcost.CostTable
	// Ckpt attaches a checkpoint store, shared across sessions: the
	// session deposits snapshots at canonical interval boundaries and
	// transparently resumes fast-mode intervals from stored state.
	// Results and modelled paper cost are unchanged (see ckpt.go); only
	// host wall-clock shrinks. Nil disables checkpointing.
	Ckpt *ckpt.Store
	// CkptStride is the deposit stride in base intervals (default 1:
	// every interval boundary).
	CkptStride uint64
	// Obs mirrors execution into a metrics registry (per-mode
	// instruction/stat/wall-clock counters, checkpoint restore timings,
	// host-cost charges). Purely observational: simulation results are
	// bit-identical with it attached or nil (check.ObsVariants).
	Obs *obs.Registry
	// Trace records every execution-mode transition (fast↔event↔detail)
	// with instruction position, trigger-statistic deltas and wall-clock
	// residency. Nil disables tracing; independent of Obs.
	Trace *obs.TransitionTrace
	// Context, when non-nil, bounds stepping: once cancelled, every Run
	// method returns 0 promptly and Interrupted() reports the cause.
	// Results produced after cancellation are partial and must be
	// discarded by the caller.
	Context context.Context
}

func (o *Options) setDefaults() {
	if o.Scale <= 0 {
		o.Scale = 20_000
	}
}

// Session is one benchmark run: VM + timing core + cost meter.
type Session struct {
	spec workload.Spec
	opts Options

	img  *asm.Image
	plan *workload.Plan

	machine *vm.Machine
	core    *timing.Core
	meter   *hostcost.Meter

	total    uint64
	interval uint64
	executed uint64
	lastMode hostcost.Mode
	feedback bool

	// Observability and cancellation (see obs.go).
	ob          *sessionObs
	ctx         context.Context
	interrupted bool

	// Checkpoint participation (see ckpt.go).
	ckpt      *ckpt.Store
	ckptEvery uint64 // deposit stride in instructions
	wlHash    uint64 // workload-identity hash for checkpoint keys
	canonical bool   // still on the canonical interval partitioning
}

// NewSession builds a session for one suite benchmark.
func NewSession(spec workload.Spec, opts Options) *Session {
	opts.setDefaults()
	total := opts.TotalInstr
	if total == 0 {
		total = spec.ScaledInstr(opts.Scale)
	}
	interval := opts.IntervalLen
	if interval == 0 {
		interval = workload.DefaultIntervalLen(total)
	}
	img, plan := workload.Build(spec, total, interval)
	s := &Session{
		spec:     spec,
		opts:     opts,
		plan:     plan,
		total:    total,
		interval: interval,
		meter:    hostcost.NewMeter(costTable(opts)),
		img:      img,
		ctx:      opts.Context,
	}
	s.ob = newSessionObs(opts.Obs, opts.Trace, spec.Name)
	s.meter.SetObs(opts.Obs)
	if opts.Ckpt != nil {
		stride := opts.CkptStride
		if stride == 0 {
			// Default: bound the deposit count per workload (~32) so the
			// snapshot-copy overhead stays a small fraction of execution
			// regardless of how many intervals the budget spans.
			stride = 1
			if n := total / interval; n > 32 {
				stride = n / 32
			}
		}
		s.ckpt = opts.Ckpt
		s.ckptEvery = stride * interval
		s.wlHash = workloadHash(img.Digest(), total, interval, opts.VM)
	}
	s.resetMachines()
	return s
}

func costTable(opts Options) hostcost.CostTable {
	if opts.Costs != nil {
		return *opts.Costs
	}
	t := hostcost.DefaultCosts()
	// A checkpoint restore is a fixed real-world cost (~2 s of host
	// time for a memory image), independent of the workload scale; the
	// unit charge must therefore grow as the workload shrinks so the
	// extrapolated paper-equivalent time stays constant.
	t.RestoreOverhead = 2.0 / 1e-9 / t.NsPerUnit / float64(opts.Scale)
	return t
}

func (s *Session) timingConfig() timing.Config {
	if s.opts.Timing != nil {
		return *s.opts.Timing
	}
	return timing.DefaultConfig()
}

func (s *Session) resetMachines() {
	s.machine = vm.New(s.opts.VM)
	s.machine.Load(s.img)
	s.core = timing.NewCore(s.timingConfig())
	s.executed = 0
	s.lastMode = hostcost.Fast
	s.canonical = true
	if s.feedback {
		s.EnableTimingFeedback()
	}
}

// Reset rewinds the session to the start of the benchmark with cold
// microarchitectural state. The host-cost meter is preserved: a policy
// that needs two passes (SimPoint) pays for both.
func (s *Session) Reset() { s.resetMachines() }

// Spec returns the benchmark being simulated.
func (s *Session) Spec() workload.Spec { return s.spec }

// Plan returns the generated workload's ground-truth plan.
func (s *Session) Plan() *workload.Plan { return s.plan }

// Machine exposes the VM (read-mostly; used by policies for statistics).
func (s *Session) Machine() *vm.Machine { return s.machine }

// Core exposes the timing core.
func (s *Session) Core() *timing.Core { return s.core }

// Meter exposes the host-cost meter.
func (s *Session) Meter() *hostcost.Meter { return s.meter }

// Scale returns the workload scale divisor.
func (s *Session) Scale() int { return s.opts.Scale }

// IntervalLen returns the base sampling interval ("1M instructions" in
// paper terms).
func (s *Session) IntervalLen() uint64 { return s.interval }

// Total returns the instruction budget.
func (s *Session) Total() uint64 { return s.total }

// Executed returns instructions executed so far in this pass.
func (s *Session) Executed() uint64 { return s.executed }

// Remaining returns the unexecuted budget.
func (s *Session) Remaining() uint64 {
	if s.executed >= s.total {
		return 0
	}
	return s.total - s.executed
}

// Done reports whether the budget is exhausted or the guest halted.
func (s *Session) Done() bool {
	return s.executed >= s.total || s.machine.Halted()
}

// clamp limits a request to the remaining budget.
func (s *Session) clamp(n uint64) uint64 {
	if r := s.Remaining(); n > r {
		return r
	}
	return n
}

func (s *Session) charge(mode hostcost.Mode, n uint64) {
	if n == 0 {
		return
	}
	if mode != hostcost.Fast && mode != s.lastMode {
		s.meter.ChargeSwitch()
	}
	s.lastMode = mode
	s.meter.Charge(mode, n)
}

// EnableTimingFeedback routes the guest's time base (SysTimeQuery)
// through the timing model: guest-visible time is the core's modelled
// cycle count, extrapolated over functionally-executed gaps at the
// core's cumulative CPI. This is the feedback path the paper requires
// for full-system simulation ("we can also feed timing information back
// to the SimNow software to affect the application behavior") and
// disables for its SPEC experiments; it is likewise off by default here.
func (s *Session) EnableTimingFeedback() {
	s.feedback = true
	s.machine.SetTimeSource(func() uint64 {
		mk := s.core.Marker()
		gap := s.machine.Stats().Instructions - mk.Instrs
		cpi := 1.0
		if mk.Instrs > 0 && mk.Cycles > 0 {
			cpi = float64(mk.Cycles) / float64(mk.Instrs)
		}
		return mk.Cycles + uint64(float64(gap)*cpi)
	})
}

// ResetMeter replaces the cost meter with a fresh one. SimPoint uses it
// to report its no-profiling-cost variant (the paper's "SimPoint" bar,
// as opposed to "SimPoint+prof").
func (s *Session) ResetMeter() {
	s.meter = hostcost.NewMeter(costTable(s.opts))
	s.meter.SetObs(s.opts.Obs)
}

// RunFastFree executes up to n instructions at full VM speed without
// charging host cost. It models dispatching to a checkpoint: the paper's
// SimPoint accounting reaches each simulation point from stored state
// rather than by re-executing, so only a fixed restore overhead is
// charged (by the caller, via Meter().ChargeRestore).
func (s *Session) RunFastFree(n uint64) uint64 {
	if s.stopped() {
		return 0
	}
	n = s.clamp(n)
	s.noteRun(n)
	ex := s.runObserved(hostcost.Fast, n, nil)
	s.maybeDeposit()
	return ex
}

// RunFast executes up to n instructions at full VM speed. With a
// checkpoint store attached, a canonical aligned interval whose end
// state is already stored is satisfied by a restore instead of
// execution (bit-identical state and statistics, identical charge).
func (s *Session) RunFast(n uint64) uint64 {
	if s.stopped() {
		return 0
	}
	n = s.clamp(n)
	s.noteRun(n)
	if s.fastHit(n) {
		return n
	}
	ex := s.runObserved(hostcost.Fast, n, nil)
	s.charge(hostcost.Fast, ex)
	s.maybeDeposit()
	return ex
}

// RunFuncWarm executes up to n instructions with functional warming:
// the event stream updates caches, TLBs and the branch predictor but no
// timing is modelled (SMARTS's inter-unit mode).
func (s *Session) RunFuncWarm(n uint64) uint64 {
	if s.stopped() {
		return 0
	}
	n = s.clamp(n)
	s.noteRun(n)
	ex := s.runObserved(hostcost.FuncWarm, n, s.core.WarmSink())
	s.charge(hostcost.FuncWarm, ex)
	s.maybeDeposit()
	return ex
}

// RunDetailWarm executes up to n instructions through the detailed core
// without recording a measurement (microarchitectural warm-up before a
// sample).
func (s *Session) RunDetailWarm(n uint64) uint64 {
	if s.stopped() {
		return 0
	}
	n = s.clamp(n)
	s.noteRun(n)
	ex := s.runObserved(hostcost.DetailWarm, n, s.core)
	s.charge(hostcost.DetailWarm, ex)
	s.maybeDeposit()
	return ex
}

// RunTimed executes up to n instructions through the detailed core and
// returns the measured IPC of the interval.
func (s *Session) RunTimed(n uint64) (ipc float64, executed uint64) {
	if s.stopped() {
		return 0, 0
	}
	n = s.clamp(n)
	s.noteRun(n)
	from := s.core.Marker()
	ex := s.runObserved(hostcost.Timing, n, s.core)
	s.charge(hostcost.Timing, ex)
	s.maybeDeposit()
	return timing.IPC(from, s.core.Marker()), ex
}

// RunProfile executes up to n instructions delivering events to a
// caller-supplied profiler (charged at BBV-profiling cost).
func (s *Session) RunProfile(n uint64, sink vm.BatchSink) uint64 {
	if s.stopped() {
		return 0
	}
	n = s.clamp(n)
	s.noteRun(n)
	ex := s.runObserved(hostcost.BBVProfile, n, sink)
	s.charge(hostcost.BBVProfile, ex)
	s.maybeDeposit()
	return ex
}

// RunEvents executes up to n instructions delivering events to an
// arbitrary sink at plain event-generation cost (used by diagnostics).
func (s *Session) RunEvents(n uint64, sink vm.BatchSink) uint64 {
	if s.stopped() {
		return 0
	}
	n = s.clamp(n)
	s.noteRun(n)
	ex := s.runObserved(hostcost.Event, n, sink)
	s.charge(hostcost.Event, ex)
	s.maybeDeposit()
	return ex
}

// StatsDelta returns the VM statistics accumulated since prev, and the
// new snapshot.
func (s *Session) StatsDelta(prev vm.Stats) (delta, now vm.Stats) {
	now = s.machine.Stats()
	return now.Sub(prev), now
}

// String identifies the session.
func (s *Session) String() string {
	return fmt.Sprintf("session(%s, total=%d, L=%d, scale=%d)",
		s.spec.Name, s.total, s.interval, s.opts.Scale)
}
