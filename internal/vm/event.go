package vm

import "repro/internal/isa"

// Event describes one retired guest instruction. Events are only
// produced in event-generating mode (Run with a non-nil BatchSink); in fast
// mode the VM executes the identical architectural state transitions
// without materialising events, which is where its speed comes from.
//
// The Event layout mirrors what the paper's modified SimNow delivers to
// PTLsim: program counter, operation class, register operands, the
// effective address of memory operations, and resolved control flow.
type Event struct {
	PC      uint64
	NextPC  uint64 // architecturally resolved next PC
	MemAddr uint64 // effective address for loads/stores
	Target  uint64 // branch/jump destination when taken
	Op      isa.Op
	Class   isa.Class
	Rd      uint8
	Rs1     uint8
	Rs2     uint8
	Taken   bool // conditional branches: outcome
}

// Sink is the per-event half of BatchSink: Event delivery one
// instruction at a time, for callers that replay a recorded stream
// (trace.Reader.Replay) rather than run the VM. Implementations
// include the timing simulator front-end (full detail), the
// functional-warming adaptor (caches and predictors only), and the BBV
// profiler.
//
// The event pointer is only valid for the duration of the call; sinks
// must copy anything they keep.
type Sink interface {
	OnEvent(ev *Event)
}

// BatchSink consumes the instruction event stream Machine.Run
// produces: the VM buffers retired-instruction events into a
// fixed-capacity batch inline in the interpreter loop and delivers them
// in slices, amortising interface dispatch and event copies across
// hundreds of instructions. Config.EventBatch 1 is true
// per-instruction delivery.
//
// Delivery boundaries (the flush points) are: batch full, block exit to
// a translation-cache lookup, immediately before a system call is
// serviced (so timing-feedback state owned by the sink is caught up to
// the instruction stream), guest halt, and Run return. Event order is
// identical for every batch capacity, and results are bit-identical
// (internal/check's batch-invariance checker enforces this).
//
// The slice is only valid for the duration of the call and is reused
// for the next batch; sinks must copy anything they keep.
type BatchSink interface {
	Sink
	OnEvents(evs []Event)
}

// BatchFunc adapts a function to the BatchSink interface.
type BatchFunc func(evs []Event)

// OnEvents calls f(evs).
func (f BatchFunc) OnEvents(evs []Event) { f(evs) }

// OnEvent delivers a single event as a one-element batch.
func (f BatchFunc) OnEvent(ev *Event) { f([]Event{*ev}) }

// MultiSink fans events out to several sinks in order.
type MultiSink []BatchSink

// OnEvent delivers ev to each sink.
func (ms MultiSink) OnEvent(ev *Event) {
	for _, s := range ms {
		s.OnEvent(ev)
	}
}

// OnEvents delivers the batch to each sink.
func (ms MultiSink) OnEvents(evs []Event) {
	for _, s := range ms {
		s.OnEvents(evs)
	}
}

// CountingSink counts events by class; useful in tests.
type CountingSink struct {
	Total   uint64
	ByClass [isa.NumClasses]uint64
}

// OnEvent records the event.
func (c *CountingSink) OnEvent(ev *Event) {
	c.Total++
	c.ByClass[ev.Class]++
}

// OnEvents records a batch of events. Counts accumulate into two
// interleaved local tables before merging into ByClass: a run of
// same-class events (the common shape — ALU-heavy guest code) would
// otherwise serialise on the store-to-load latency of one counter
// slot, which dominates the per-event cost at interpreter speeds. The
// tables are a power-of-two length indexed by a masked class so the
// inner loop carries no bounds check; guest classes never exceed
// isa.NumClasses, so the mask is a no-op semantically.
func (c *CountingSink) OnEvents(evs []Event) {
	c.Total += uint64(len(evs))
	var a, b [16]uint64
	i := 0
	for ; i+1 < len(evs); i += 2 {
		a[evs[i].Class&15]++
		b[evs[i+1].Class&15]++
	}
	if i < len(evs) {
		a[evs[i].Class&15]++
	}
	for cl := range c.ByClass {
		c.ByClass[cl] += a[cl] + b[cl]
	}
}
