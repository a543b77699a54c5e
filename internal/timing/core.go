package timing

import (
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/vm"
)

// fuKind indexes the functional-unit pools.
type fuKind int

const (
	fuInt fuKind = iota
	fuMem
	fuFP
	numFU
)

// Core is the out-of-order core timing model. It consumes the VM's
// instruction event stream (it implements vm.Sink) and advances a cycle
// model; interval IPC is read through Markers.
type Core struct {
	cfg  Config
	pred *branch.Predictor

	l1i, l1d, l2      *cache.Cache
	itlb, dtlb, l2tlb *cache.TLB

	// Fetch state.
	fetchCursor   uint64
	fetchedInCyc  int
	lastFetchLine uint64

	// Retirement state.
	retireCycle  uint64
	retiredInCyc int

	// Register scoreboard: cycle at which each register's value is ready.
	regReady [isa.NumRegs]uint64

	// Occupancy rings: cycle at which the entry frees.
	rob     []uint64
	robIdx  int
	loadQ   []uint64
	loadIdx int
	storeQ  []uint64
	stIdx   int

	// Functional-unit pools: next-free cycle per unit.
	fu [numFU][]uint64

	// Counters.
	instrs      uint64
	loads       uint64
	stores      uint64
	mispredicts uint64
	flushes     uint64
	byClass     [isa.NumClasses]uint64
}

// NewCore builds a core with the given configuration (zero Config fields
// are not defaulted; use DefaultConfig).
func NewCore(cfg Config) *Core {
	l2 := cfg.SharedL2
	if l2 == nil {
		l2 = cache.New(cfg.L2)
	}
	c := &Core{
		cfg:    cfg,
		pred:   branch.New(branch.Default()),
		l1i:    cache.New(cfg.L1I),
		l1d:    cache.New(cfg.L1D),
		l2:     l2,
		itlb:   cache.NewTLB(cfg.ITLB),
		dtlb:   cache.NewTLB(cfg.DTLB),
		l2tlb:  cache.NewTLB(cfg.L2TLB),
		rob:    make([]uint64, cfg.Window),
		loadQ:  make([]uint64, cfg.LoadBuf),
		storeQ: make([]uint64, cfg.StoreBuf),
	}
	c.fu[fuInt] = make([]uint64, cfg.IntALU)
	c.fu[fuMem] = make([]uint64, cfg.MemPorts)
	c.fu[fuFP] = make([]uint64, cfg.FPUs)
	c.lastFetchLine = ^uint64(0)
	return c
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Predictor exposes the branch predictor (for statistics).
func (c *Core) Predictor() *branch.Predictor { return c.pred }

// CacheStats returns (L1I, L1D, L2) statistics.
func (c *Core) CacheStats() (l1i, l1d, l2 cache.Stats) {
	return c.l1i.Stats(), c.l1d.Stats(), c.l2.Stats()
}

// TLBStats returns (ITLB, DTLB, L2TLB) statistics.
func (c *Core) TLBStats() (itlb, dtlb, l2tlb cache.Stats) {
	return c.itlb.Stats(), c.dtlb.Stats(), c.l2tlb.Stats()
}

// Marker is a point in simulated time.
type Marker struct {
	Cycles uint64
	Instrs uint64
}

// Marker returns the current simulated position.
func (c *Core) Marker() Marker { return Marker{Cycles: c.retireCycle, Instrs: c.instrs} }

// IPC returns instructions per cycle between two markers (0 if no cycles
// elapsed).
func IPC(from, to Marker) float64 {
	dc := to.Cycles - from.Cycles
	di := to.Instrs - from.Instrs
	if dc == 0 {
		return 0
	}
	return float64(di) / float64(dc)
}

// Mispredicts returns the cumulative full-penalty redirect count.
func (c *Core) Mispredicts() uint64 { return c.mispredicts }

// Snapshot is the timing-visible state of a core at one instant: the
// simulated clock, every retirement counter, and the statistics and
// replacement-state digests of each cache and TLB level. It is a
// comparable value, so two cores that consumed observationally
// identical event streams — against identical shared-L2 schedules —
// have equal Snapshots. The SMP equivalence harness compares parallel
// and sequential schedules through this surface; any divergence in
// cycle accounting, cache contents, or replacement order shows up as a
// field difference.
type Snapshot struct {
	Cycles      uint64
	Instrs      uint64
	Loads       uint64
	Stores      uint64
	Mispredicts uint64
	Flushes     uint64
	ByClass     [isa.NumClasses]uint64

	L1I, L1D, L2      cache.Stats
	ITLB, DTLB, L2TLB cache.Stats

	// Digests cover tag state and LRU order, not just counters. L2 is
	// the shared cache's digest when the core was built with one, so a
	// multi-core snapshot set pins the interleaved shared-L2 schedule.
	L1IDigest, L1DDigest, L2Digest uint64
}

// Snapshot captures the core's timing-visible state.
func (c *Core) Snapshot() Snapshot {
	return Snapshot{
		Cycles:      c.retireCycle,
		Instrs:      c.instrs,
		Loads:       c.loads,
		Stores:      c.stores,
		Mispredicts: c.mispredicts,
		Flushes:     c.flushes,
		ByClass:     c.byClass,
		L1I:         c.l1i.Stats(),
		L1D:         c.l1d.Stats(),
		L2:          c.l2.Stats(),
		ITLB:        c.itlb.Stats(),
		DTLB:        c.dtlb.Stats(),
		L2TLB:       c.l2tlb.Stats(),
		L1IDigest:   c.l1i.Digest(),
		L1DDigest:   c.l1d.Digest(),
		L2Digest:    c.l2.Digest(),
	}
}

// ClassCounts returns the cumulative retired-instruction counts by
// instruction class (the power model's activity factors).
func (c *Core) ClassCounts() [isa.NumClasses]uint64 { return c.byClass }

// Instructions returns the cumulative instruction count seen in detail.
func (c *Core) Instructions() uint64 { return c.instrs }

// dmemLatency computes a load's total latency through DTLB and the data
// cache hierarchy.
func (c *Core) dmemLatency(addr uint64) int {
	lat := c.cfg.L1Lat
	if !c.dtlb.Access(addr) {
		if c.l2tlb.Access(addr) {
			lat += c.cfg.L2TLBLat
		} else {
			lat += c.cfg.L2TLBLat + c.cfg.WalkLat
		}
	}
	if !c.l1d.Access(addr) {
		if c.l2.Access(addr) {
			lat += c.cfg.L2HitLat
		} else {
			lat += c.cfg.L2HitLat + c.cfg.MemLat
		}
	}
	return lat
}

// ifetch charges instruction-fetch latency when the fetch stream crosses
// into a new cache line.
func (c *Core) ifetch(pc uint64) {
	line := pc >> 6
	if line == c.lastFetchLine {
		return
	}
	c.lastFetchLine = line
	extra := 0
	if !c.itlb.Access(pc) {
		if c.l2tlb.Access(pc) {
			extra += c.cfg.L2TLBLat
		} else {
			extra += c.cfg.L2TLBLat + c.cfg.WalkLat
		}
	}
	if !c.l1i.Access(pc) {
		if c.l2.Access(pc) {
			extra += c.cfg.L2HitLat
		} else {
			extra += c.cfg.L2HitLat + c.cfg.MemLat
		}
	}
	if extra > 0 {
		c.fetchCursor += uint64(extra)
		c.fetchedInCyc = 0
	}
}

// issueOn picks the earliest-free unit in a pool and occupies it from
// the issue cycle for busy cycles. It returns the issue cycle.
func (c *Core) issueOn(pool fuKind, ready uint64, busy int) uint64 {
	units := c.fu[pool]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	issue := ready
	if units[best] > issue {
		issue = units[best]
	}
	units[best] = issue + uint64(busy)
	return issue
}

// OnEvents processes a batch of retired instructions in full detail.
// It implements vm.BatchSink, so a Core handed to vm.Machine.Run
// receives events in slices rather than one virtual call per
// instruction; the model itself is strictly per-instruction, so the
// result is identical to per-event delivery.
func (c *Core) OnEvents(evs []vm.Event) {
	for i := range evs {
		c.OnEvent(&evs[i])
	}
}

// OnEvent processes one retired instruction in full detail. It
// implements vm.Sink, so a Core can be handed directly to vm.Machine.Run.
func (c *Core) OnEvent(ev *vm.Event) {
	cfg := &c.cfg

	// --- Fetch ---
	c.ifetch(ev.PC)
	// Window occupancy: this instruction reuses the ROB slot of the
	// instruction Window positions back; fetch stalls until it retired.
	if free := c.rob[c.robIdx]; free > c.fetchCursor {
		c.fetchCursor = free
		c.fetchedInCyc = 0
	}
	fetch := c.fetchCursor
	c.fetchedInCyc++
	if c.fetchedInCyc >= cfg.Width {
		c.fetchCursor++
		c.fetchedInCyc = 0
	}

	// --- Ready (dispatch + operand availability) ---
	ready := fetch + uint64(cfg.FrontDepth)
	if ev.Op.ReadsRs1() {
		if r := c.regReady[ev.Rs1]; r > ready {
			ready = r
		}
	}
	if ev.Op.ReadsRs2() {
		if r := c.regReady[ev.Rs2]; r > ready {
			ready = r
		}
	}

	// --- Issue + execute ---
	var issue, complete uint64
	redirect := false
	switch ev.Class {
	case isa.ClassLoad:
		if free := c.loadQ[c.loadIdx]; free > ready {
			ready = free
		}
		issue = c.issueOn(fuMem, ready, 1)
		complete = issue + uint64(c.dmemLatency(ev.MemAddr))
		c.loadQ[c.loadIdx] = complete
		c.loadIdx = (c.loadIdx + 1) % cfg.LoadBuf
		c.loads++
	case isa.ClassStore:
		if free := c.storeQ[c.stIdx]; free > ready {
			ready = free
		}
		issue = c.issueOn(fuMem, ready, 1)
		// Stores complete once the address is known; the write drains
		// from the store buffer after retirement.
		c.dmemLatency(ev.MemAddr) // warm the hierarchy
		complete = issue + 1
		c.storeQ[c.stIdx] = complete
		c.stIdx = (c.stIdx + 1) % cfg.StoreBuf
		c.stores++
	case isa.ClassMul:
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + uint64(cfg.MulLat)
	case isa.ClassDiv:
		issue = c.issueOn(fuInt, ready, cfg.DivLat) // unpipelined
		complete = issue + uint64(cfg.DivLat)
	case isa.ClassFP:
		issue = c.issueOn(fuFP, ready, 1)
		complete = issue + uint64(cfg.FPLat)
	case isa.ClassFDiv:
		issue = c.issueOn(fuFP, ready, cfg.FDivLat) // unpipelined
		complete = issue + uint64(cfg.FDivLat)
	case isa.ClassBranch:
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + 1
		if c.pred.OnBranch(ev.PC, ev.Taken) {
			redirect = true
		} else if ev.Taken {
			// Correctly predicted taken: fetch-group break.
			c.fetchCursor++
			c.fetchedInCyc = 0
		}
	case isa.ClassJump:
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + 1
		switch {
		case ev.Op == isa.OpJal:
			c.pred.OnCall(ev.PC + isa.InstBytes)
		case ev.Op == isa.OpJalr && ev.Rd == isa.RegZero:
			if c.pred.OnReturn(ev.Target) {
				redirect = true
			}
		case ev.Op == isa.OpJalr:
			c.pred.OnCall(ev.PC + isa.InstBytes)
			if c.pred.OnTarget(ev.PC, ev.Target) {
				redirect = true
			}
		}
		if !redirect {
			c.fetchCursor++ // taken transfer: fetch-group break
			c.fetchedInCyc = 0
		}
	case isa.ClassSys, isa.ClassHalt:
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + uint64(cfg.SysLat)
		// Syscalls serialise the pipeline.
		if f := complete + uint64(cfg.SysFlush); f > c.fetchCursor {
			c.fetchCursor = f
			c.fetchedInCyc = 0
		}
		c.flushes++
		c.lastFetchLine = ^uint64(0)
	default: // ClassALU, ClassNop
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + 1
	}

	if redirect {
		c.mispredicts++
		if f := complete + uint64(cfg.MispredictPenalty); f > c.fetchCursor {
			c.fetchCursor = f
			c.fetchedInCyc = 0
		}
		c.lastFetchLine = ^uint64(0)
	}

	// --- Writeback ---
	if ev.Op.HasDest() && ev.Rd != isa.RegZero {
		c.regReady[ev.Rd] = complete
	}

	// --- Retire (in order, width-limited) ---
	rc := complete
	if rc < c.retireCycle {
		rc = c.retireCycle
	}
	if rc == c.retireCycle {
		c.retiredInCyc++
		if c.retiredInCyc >= cfg.Width {
			rc++
			c.retireCycle = rc
			c.retiredInCyc = 0
		}
	} else {
		c.retireCycle = rc
		c.retiredInCyc = 1
	}
	c.rob[c.robIdx] = rc
	c.robIdx = (c.robIdx + 1) % cfg.Window
	c.instrs++
	c.byClass[ev.Class]++
}

// warmSink adapts the core to functional-warming mode: caches, TLBs and
// branch predictor are updated from the event stream, but no cycles are
// modelled. This is what SMARTS does between sampling units.
type warmSink struct{ c *Core }

// WarmSink returns a vm.BatchSink that performs functional warming
// only.
func (c *Core) WarmSink() vm.BatchSink { return warmSink{c} }

// OnEvents warms from a batch of events.
func (w warmSink) OnEvents(evs []vm.Event) {
	for i := range evs {
		w.OnEvent(&evs[i])
	}
}

// OnEvent updates stateful structures without timing.
func (w warmSink) OnEvent(ev *vm.Event) {
	c := w.c
	line := ev.PC >> 6
	if line != c.lastFetchLine {
		c.lastFetchLine = line
		if !c.itlb.Access(ev.PC) {
			c.l2tlb.Access(ev.PC)
		}
		if !c.l1i.Access(ev.PC) {
			c.l2.Access(ev.PC)
		}
	}
	switch ev.Class {
	case isa.ClassLoad, isa.ClassStore:
		if !c.dtlb.Access(ev.MemAddr) {
			c.l2tlb.Access(ev.MemAddr)
		}
		if !c.l1d.Access(ev.MemAddr) {
			c.l2.Access(ev.MemAddr)
		}
	case isa.ClassBranch:
		c.pred.OnBranch(ev.PC, ev.Taken)
	case isa.ClassJump:
		switch {
		case ev.Op == isa.OpJal:
			c.pred.OnCall(ev.PC + isa.InstBytes)
		case ev.Op == isa.OpJalr && ev.Rd == isa.RegZero:
			c.pred.OnReturn(ev.Target)
		case ev.Op == isa.OpJalr:
			c.pred.OnCall(ev.PC + isa.InstBytes)
			c.pred.OnTarget(ev.PC, ev.Target)
		}
	case isa.ClassSys:
		c.lastFetchLine = ^uint64(0)
	}
}
