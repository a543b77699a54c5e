// Package vm implements the functional full-system simulator — the
// reproduction's stand-in for AMD's SimNow.
//
// Like a real dynamic-binary-translation VM it executes guest code
// through a translation cache of decoded basic blocks with block
// chaining, maintains a software TLB for guest virtual memory, services
// guest exceptions (page faults, system calls) and device I/O, and keeps
// the internal statistics the paper's Dynamic Sampling monitors: code
// cache invalidations (CPU), exceptions (EXC), and I/O operations (I/O).
//
// The machine runs in two modes, selected per Run call:
//
//   - fast mode (nil sink): no per-instruction observation; this is the
//     near-native-speed mode a VM normally runs in.
//   - event mode (non-nil BatchSink): every retired instruction is delivered
//     to the sink (PC, class, memory address, branch outcome). This is
//     the 10–20× slower mode required to feed a timing simulator, and
//     the cost the paper's sampling schedule is designed to avoid.
package vm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Config parameterises the machine.
type Config struct {
	// MemSpan is the guest address-space size in bytes (default 1 GB).
	MemSpan uint64
	// TCMaxBlocks is the translation-cache capacity in basic blocks;
	// exceeding it triggers a Dynamo-style full flush (default 32768).
	TCMaxBlocks int
	// TLBEntries is the software-TLB size; must be a power of two
	// (default 1024).
	TLBEntries int
	// MaxBlockLen caps decoded basic-block length (default 64).
	MaxBlockLen int
	// DiskSeed seeds the block device's deterministic content.
	DiskSeed uint64
	// EventBatch is the event-mode delivery batch capacity in events
	// (default 256). Purely host-side: the batch size never influences
	// guest-visible behaviour, statistics, or results — only how many
	// events each BatchSink.OnEvents call carries — so it is excluded
	// from checkpoint workload hashes.
	EventBatch int
}

func (c *Config) setDefaults() {
	if c.MemSpan == 0 {
		c.MemSpan = 1 << 30
	}
	if c.TCMaxBlocks == 0 {
		c.TCMaxBlocks = 32768
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 1024
	}
	if c.TLBEntries&(c.TLBEntries-1) != 0 {
		panic("vm: TLBEntries must be a power of two")
	}
	if c.MaxBlockLen == 0 {
		c.MaxBlockLen = 64
	}
	if c.EventBatch <= 0 {
		c.EventBatch = 256
	}
}

// Normalized returns the configuration with defaults applied. Every
// field of the normalized form except EventBatch (a host-side delivery
// granularity with no guest-visible effect) influences the machine's
// execution trajectory; checkpoint keys hash exactly those
// trajectory-relevant values: two machines with equal normalized
// configurations (and equal guest images) execute identical
// instruction streams.
func (c Config) Normalized() Config {
	c.setDefaults()
	return c
}

// dinst is one decoded instruction as stored in a translation-cache
// block: the architectural fields of isa.Inst plus translate-time
// precomputations the interpreter hot loop would otherwise re-derive
// on every retirement — the dispatch kind (xc), the instruction class,
// the absolute PC-relative control-transfer target, and whether the op
// terminates the block. Every field is position-independent (targets
// are absolute), so a decoded suffix is valid from any block that
// covers the same addresses.
// dinst is one decoded instruction. The op..rs2 fields are laid out
// contiguously in exactly the order of the corresponding Event fields,
// so the event-mode store of the five static bytes compiles to wide
// moves instead of five byte copies.
type dinst struct {
	target    uint64 // absolute pc+imm for PC-relative branches/jumps
	imm       int32
	op        isa.Op
	cls       isa.Class
	rd        uint8
	rs1       uint8
	rs2       uint8
	xc        uint8 // threaded-dispatch kind, see the x* constants
	endsBlock bool
}

// Threaded-dispatch kinds: a dense decode-time re-encoding of the
// opcode space that the hot loop switches on instead of raw opcodes.
// Beyond being dense (one jump-table branch), the kinds fold in the
// specialisations the baseline re-derived per retirement:
//
//   - ops whose only effect is writing rd decode to xNop when rd is the
//     hardwired zero register (the old clearZero re-check disappears);
//     Div keeps a discarding variant because its divide can still trap,
//     and Ld keeps one because the load's TLB/fault/statistic side
//     effects must happen even when the value is dropped;
//   - Jal/Jalr with rd == r0 decode to their no-link forms;
//   - each branch kind folds the Branches/TakenBr accounting and the
//     taken-target redirect that the baseline keyed off isa.Class.
//
// Event generation still reads the architectural op/cls/rd/rs1/rs2
// from the dinst, so the event stream is byte-identical.
// Kinds are ordered so that every block-terminating op sorts at or
// after xBeq: the hot loop's end-of-block test compares the kind (
// already in a register for the dispatch switch) against xBeq instead
// of loading the endsBlock byte.
const (
	xNop uint8 = iota
	xAdd
	xSub
	xMul
	xDiv
	xDivZ // rd == r0: divide (which may still fault) with result discarded
	xAnd
	xOr
	xXor
	xSll
	xSrl
	xSra
	xSlt
	xSltu
	xAddi
	xAndi
	xOri
	xXori
	xSlli
	xSrli
	xSrai
	xSlti
	xMovi
	xMovhi
	xLd
	xLdZ // rd == r0: load side effects (TLB, faults, MemReads) without the write
	xSt
	xFadd
	xFsub
	xFmul
	xFdiv
	xFcvtIF
	xFcvtFI
	// Fused superinstruction kinds: a decode-time pass rewrites the
	// first instruction of a frequent pure-ALU pair to one of these,
	// and the dispatch case executes both instructions in a single
	// round of loop scaffolding (the second slot keeps its original
	// kind for mid-block re-entry and budget-window cuts). The pair set
	// was chosen from the dynamic pair histogram of the generated SPEC
	// workload bodies; every constituent is a pure register-writing op,
	// so a fused pair has no side effects beyond two register writes
	// and cannot end a block, fault, or die mid-pair.
	xPSlliAdd
	xPAddAddi
	xPAndSlli
	xPSrliAnd
	xPXorAdd
	xPAddiSrli
	xPAddXor
	xPAddiAnd
	xPAddSrli
	xPSrliAndi
	xPAddSlli
	xPSlliOr
	xPOrSrli
	xPAddiSlli
	xBeq // first block-terminating kind — see the xc >= xBeq test
	xBne
	xBlt
	xBge
	xJmp
	xJal
	xJalr
	xJalrZ // rd == r0: computed jump without the link write
	xHalt
	xSys
	xBad // unreachable for well-formed code; panics like the baseline default
)

// xclassOf maps an opcode (plus its destination register) to the
// threaded-dispatch kind, applying the rd==r0 demotions above.
func xclassOf(op isa.Op, rd uint8) uint8 {
	z := rd == isa.RegZero
	switch op {
	case isa.OpNop:
		return xNop
	case isa.OpHalt:
		return xHalt
	case isa.OpAdd:
		if z {
			return xNop
		}
		return xAdd
	case isa.OpSub:
		if z {
			return xNop
		}
		return xSub
	case isa.OpMul:
		if z {
			return xNop
		}
		return xMul
	case isa.OpDiv:
		if z {
			return xDivZ
		}
		return xDiv
	case isa.OpAnd:
		if z {
			return xNop
		}
		return xAnd
	case isa.OpOr:
		if z {
			return xNop
		}
		return xOr
	case isa.OpXor:
		if z {
			return xNop
		}
		return xXor
	case isa.OpSll:
		if z {
			return xNop
		}
		return xSll
	case isa.OpSrl:
		if z {
			return xNop
		}
		return xSrl
	case isa.OpSra:
		if z {
			return xNop
		}
		return xSra
	case isa.OpSlt:
		if z {
			return xNop
		}
		return xSlt
	case isa.OpSltu:
		if z {
			return xNop
		}
		return xSltu
	case isa.OpAddi:
		if z {
			return xNop
		}
		return xAddi
	case isa.OpAndi:
		if z {
			return xNop
		}
		return xAndi
	case isa.OpOri:
		if z {
			return xNop
		}
		return xOri
	case isa.OpXori:
		if z {
			return xNop
		}
		return xXori
	case isa.OpSlli:
		if z {
			return xNop
		}
		return xSlli
	case isa.OpSrli:
		if z {
			return xNop
		}
		return xSrli
	case isa.OpSrai:
		if z {
			return xNop
		}
		return xSrai
	case isa.OpSlti:
		if z {
			return xNop
		}
		return xSlti
	case isa.OpMovi:
		if z {
			return xNop
		}
		return xMovi
	case isa.OpMovhi:
		if z {
			return xNop
		}
		return xMovhi
	case isa.OpLd:
		if z {
			return xLdZ
		}
		return xLd
	case isa.OpSt:
		return xSt
	case isa.OpBeq:
		return xBeq
	case isa.OpBne:
		return xBne
	case isa.OpBlt:
		return xBlt
	case isa.OpBge:
		return xBge
	case isa.OpJmp:
		return xJmp
	case isa.OpJal:
		if z {
			return xJmp
		}
		return xJal
	case isa.OpJalr:
		if z {
			return xJalrZ
		}
		return xJalr
	case isa.OpFadd:
		if z {
			return xNop
		}
		return xFadd
	case isa.OpFsub:
		if z {
			return xNop
		}
		return xFsub
	case isa.OpFmul:
		if z {
			return xNop
		}
		return xFmul
	case isa.OpFdiv:
		if z {
			return xNop
		}
		return xFdiv
	case isa.OpFcvtIF:
		if z {
			return xNop
		}
		return xFcvtIF
	case isa.OpFcvtFI:
		if z {
			return xNop
		}
		return xFcvtFI
	case isa.OpSys:
		return xSys
	default:
		return xBad
	}
}

// block is one translation-cache entry: a decoded basic block.
type block struct {
	pc    uint64
	insts []dinst
	dead  bool
	// 1-entry chain: the dominant successor, looked up without touching
	// the translation-cache map (block chaining / linking).
	chainPC  uint64
	chainBlk *block
	// Superblock state (host-side, never snapshotted — like chain
	// links, it re-forms after restores and invalidations):
	// heat counts dispatch entries; when it crosses
	// traceHotThreshold the machine tries to chain the recorded
	// dominant successors into a trace headed at this block.
	heat uint32
	tr   *trace
}

// PhaseMark is a guest-reported phase annotation (SysPhaseMark), used by
// the experiment harness as ground truth when analysing phase detection.
type PhaseMark struct {
	Instr uint64 // instruction count at the mark
	Value uint64 // guest-supplied phase identifier
}

// Machine is one guest system: CPU state, memory, devices, translation
// cache, software TLB, and statistics.
type Machine struct {
	cfg Config

	regs   [isa.NumRegs]uint64
	pc     uint64
	halted bool

	mem     *mem.Memory
	console *device.Console
	disk    *device.Block

	// Translation cache.
	tc        map[uint64]*block
	tcCount   int
	pageBlk   map[uint64][]*block // vpn -> blocks with code on that page
	codePages []bool              // vpn -> page holds translated code
	// tcStamp identifies the live translation set. Every mutation
	// (translate, invalidate, flush) assigns a globally fresh value;
	// Snapshot records it and Restore adopts it, so a restore whose
	// target stamp equals the machine's can skip the TC rebuild — the
	// live set is already bit-identical. Purely host-side: stamps never
	// influence guest-visible behaviour or statistics.
	tcStamp uint64

	// Software TLB: direct-mapped, stores vpn+1 (0 = invalid).
	tlb     []uint64
	tlbMask uint64
	// tlbLast is a one-entry last-vpn fast path in front of the masked
	// probe (vpn+1; 0 = invalid). Invariant: when non-zero, the TLB slot
	// it maps to holds exactly this value, so a repeat access can skip
	// the probe without missing a refill. It is pure host-side caching:
	// it never changes which refills are counted.
	tlbLast uint64
	// tlbL2 is a second-level fast path behind tlbLast: a small
	// direct-mapped cache of recent vpn+1 values indexed by
	// vpn & tlbL2Mask. Invariant: a non-zero entry v implies the main
	// TLB slot (v-1) & tlbMask holds exactly v, so an L2 hit can skip
	// the main probe without hiding a refill. The invariant holds
	// because tlbL2Mask's bits are a subset of tlbMask's: any two vpns
	// that conflict in a main slot conflict in the same L2 slot, and
	// every main-slot write repoints that shared L2 slot at the new
	// occupant (tlbRefill). Host-side only, cleared on Restore.
	tlbL2     [tlbL2Size]uint64
	tlbL2Mask uint64

	// batch is the event-mode delivery buffer, allocated once (capacity
	// cfg.EventBatch) on the first event-mode Run and reused across Run
	// calls so steady-state event generation allocates nothing.
	batch []Event

	// batchFlushes counts event-batch deliveries (OnEvents calls).
	// Purely host-side observability, like tcStamp: never serialized,
	// never restored, and excluded from Stats and state comparisons.
	batchFlushes uint64

	stats    Stats
	phaseLog []PhaseMark
	exitCode uint64
	secBuf   [device.SectorWords]uint64

	// timeSource, when set, supplies the guest-visible time base for
	// SysTimeQuery — the paper's timing-feedback path: when a timing
	// simulator is attached, guest time advances with *modelled cycles*
	// instead of the functional mode's fixed-IPC instruction count, so
	// timing-dependent guest behaviour (spin loops, protocol timeouts)
	// responds to the simulated microarchitecture.
	timeSource func() uint64
}

// maxPhaseLog bounds the retained phase-mark log.
const maxPhaseLog = 1 << 20

// tlbL2Size is the second-level TLB capacity; the effective index mask
// is min(TLBEntries, tlbL2Size)-1 so the subset-of-tlbMask invariant
// holds even for tiny configured TLBs.
const tlbL2Size = 64

// tcStampCounter issues globally unique translation-set stamps.
var tcStampCounter atomic.Uint64

func newTCStamp() uint64 { return tcStampCounter.Add(1) }

// New creates a machine with the given configuration.
func New(cfg Config) *Machine {
	cfg.setDefaults()
	l2 := tlbL2Size
	if cfg.TLBEntries < l2 {
		l2 = cfg.TLBEntries
	}
	m := &Machine{
		cfg:       cfg,
		mem:       mem.New(cfg.MemSpan),
		console:   &device.Console{},
		disk:      device.NewBlock(cfg.DiskSeed),
		tc:        make(map[uint64]*block),
		pageBlk:   make(map[uint64][]*block),
		tlb:       make([]uint64, cfg.TLBEntries),
		tlbMask:   uint64(cfg.TLBEntries - 1),
		tlbL2Mask: uint64(l2 - 1),
		tcStamp:   newTCStamp(),
	}
	m.codePages = make([]bool, cfg.MemSpan>>mem.PageShift)
	return m
}

// Load populates guest memory from an image and sets the entry point.
// Loading does not perturb guest statistics.
func (m *Machine) Load(img *asm.Image) {
	for _, seg := range img.Segments {
		for i, w := range seg.Words {
			m.mem.Populate(seg.Base+uint64(i)*8, w)
		}
	}
	m.pc = img.Entry
	m.halted = false
}

// Stats returns a copy of the machine's cumulative internal statistics.
func (m *Machine) Stats() Stats { return m.stats }

// BatchFlushes returns the cumulative number of event-batch deliveries
// (BatchSink.OnEvents calls) this machine has made — a host-side
// observability counter, not part of guest-visible Stats.
func (m *Machine) BatchFlushes() uint64 { return m.batchFlushes }

// PC returns the current program counter.
func (m *Machine) PC() uint64 { return m.pc }

// Reg returns the value of register r.
func (m *Machine) Reg(r int) uint64 { return m.regs[r] }

// SetReg sets register r (r0 writes are discarded). Tests and loaders
// use it; guest code cannot observe the difference from a MOVI.
func (m *Machine) SetReg(r int, v uint64) {
	if r != isa.RegZero {
		m.regs[r] = v
	}
}

// Halted reports whether the guest has executed HALT or SysExit.
func (m *Machine) Halted() bool { return m.halted }

// ExitCode returns the guest's SysExit argument (0 for HALT).
func (m *Machine) ExitCode() uint64 { return m.exitCode }

// Console returns the console device.
func (m *Machine) Console() *device.Console { return m.console }

// Disk returns the block device.
func (m *Machine) Disk() *device.Block { return m.disk }

// PhaseLog returns guest-reported phase marks.
func (m *Machine) PhaseLog() []PhaseMark { return m.phaseLog }

// Mem exposes the guest memory (read-mostly; used by tests and the
// experiment harness).
func (m *Machine) Mem() *mem.Memory { return m.mem }

// SetTimeSource installs the guest time base used by SysTimeQuery (nil
// restores the default fixed-IPC model, i.e. retired instructions).
func (m *Machine) SetTimeSource(f func() uint64) { m.timeSource = f }

// tlbLookup performs a software-TLB access for vpn, counting a refill
// (an EXC-visible event) on miss. A one-entry last-vpn fast path
// short-circuits the common case of repeated accesses to one page; it
// is sound because tlbLast is only set right after its slot was
// verified (or filled), and the only writer of a slot immediately
// repoints tlbLast at the new occupant, so a cached hit can never hide
// a refill.
func (m *Machine) tlbLookup(vpn uint64) {
	v := vpn + 1
	if v == m.tlbLast {
		return
	}
	if m.tlbL2[vpn&m.tlbL2Mask&(tlbL2Size-1)] == v {
		// L2 invariant: the main slot already holds v, so the baseline
		// probe would not have counted a refill either.
		m.tlbLast = v
		return
	}
	m.tlbLast = m.tlbRefill(vpn)
}

// tlbRefill is the miss path behind tlbLast and tlbL2: probe the main
// direct-mapped array, count a refill (an EXC-visible event) when the
// slot does not hold vpn, and repoint the L2 slot at the new occupant
// to maintain the L2 invariant. Returns vpn+1 for the caller to adopt
// as its last-vpn value.
func (m *Machine) tlbRefill(vpn uint64) uint64 {
	v := vpn + 1
	idx := vpn & m.tlbMask
	if m.tlb[idx] != v {
		m.tlb[idx] = v
		m.stats.TLBRefills++
		m.stats.Exceptions++
	}
	m.tlbL2[vpn&m.tlbL2Mask&(tlbL2Size-1)] = v
	return v
}

// decodeInsts decodes one basic block starting at pc, reading guest
// words through peek. It applies exactly the translation rules (length
// cap, page-end split, block-ending opcodes) but returns an error
// instead of panicking, so snapshot restores can validate a block set
// before committing any machine state. The returned instructions carry
// the translate-time precomputations (class, absolute PC-relative
// target, exit flags) the interpreter relies on.
func decodeInsts(peek func(uint64) uint64, pc uint64, maxLen int) ([]dinst, error) {
	var insts []dinst
	addr := pc
	pageEnd := (pc &^ (mem.PageBytes - 1)) + mem.PageBytes
	for len(insts) < maxLen && addr < pageEnd {
		w := peek(addr)
		in := isa.Decode(w)
		if !in.WellFormed() {
			return nil, fmt.Errorf("vm: illegal instruction %#x (%v) at pc=%#x", w, in, addr)
		}
		cls := in.Op.Class()
		d := dinst{
			imm: in.Imm,
			op:  in.Op, rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2,
			cls:       cls,
			xc:        xclassOf(in.Op, in.Rd),
			endsBlock: in.Op.EndsBlock(),
		}
		if cls == isa.ClassBranch || in.Op == isa.OpJmp || in.Op == isa.OpJal {
			d.target = addr + uint64(int64(in.Imm))
		}
		insts = append(insts, d)
		addr += isa.InstBytes
		if d.endsBlock {
			break
		}
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("vm: empty translation at pc=%#x", pc)
	}
	fusePairs(insts)
	return insts, nil
}

// fuseKind maps a pair of dispatch kinds to the fused superinstruction
// kind that executes both, or 0 (no fusion). Only pure register-
// writing ALU pairs are fused, so a fused pair cannot fault, end a
// block, or observe a mid-pair invalidation.
func fuseKind(a, b uint8) uint8 {
	switch uint16(a)<<8 | uint16(b) {
	case uint16(xSlli)<<8 | uint16(xAdd):
		return xPSlliAdd
	case uint16(xAdd)<<8 | uint16(xAddi):
		return xPAddAddi
	case uint16(xAnd)<<8 | uint16(xSlli):
		return xPAndSlli
	case uint16(xSrli)<<8 | uint16(xAnd):
		return xPSrliAnd
	case uint16(xXor)<<8 | uint16(xAdd):
		return xPXorAdd
	case uint16(xAddi)<<8 | uint16(xSrli):
		return xPAddiSrli
	case uint16(xAdd)<<8 | uint16(xXor):
		return xPAddXor
	case uint16(xAddi)<<8 | uint16(xAnd):
		return xPAddiAnd
	case uint16(xAdd)<<8 | uint16(xSrli):
		return xPAddSrli
	case uint16(xSrli)<<8 | uint16(xAndi):
		return xPSrliAndi
	case uint16(xAdd)<<8 | uint16(xSlli):
		return xPAddSlli
	case uint16(xSlli)<<8 | uint16(xOr):
		return xPSlliOr
	case uint16(xOr)<<8 | uint16(xSrli):
		return xPOrSrli
	case uint16(xAddi)<<8 | uint16(xSlli):
		return xPAddiSlli
	}
	return 0
}

// fusePairs greedily rewrites the first slot of each recognised ALU
// pair to its fused kind. The second slot keeps its original kind: a
// block entered mid-pair (budget-window cut, or a separate translation
// starting at the partner's pc) executes it standalone, and the fused
// case itself falls back to first-half-only execution when its partner
// lies beyond the current budget window. Fusion is purely an execution
// mechanic — retirement order, events, and statistics are identical to
// unfused execution — so blocks that share decoded storage (the
// decodedSuffix memo) may legally pair differently than a fresh decode
// at the same pc would.
func fusePairs(insts []dinst) {
	for i := 0; i+1 < len(insts); i++ {
		if fk := fuseKind(insts[i].xc, insts[i+1].xc); fk != 0 {
			insts[i].xc = fk
			i++ // greedy: the partner cannot also start a pair
		}
	}
}

// installBlock registers a decoded block in the translation cache and
// on every page it covers (at most two), without touching statistics.
func (m *Machine) installBlock(b *block) {
	m.tc[b.pc] = b
	m.tcCount++
	first := b.pc >> mem.PageShift
	last := (b.pc + uint64(len(b.insts))*isa.InstBytes - 1) >> mem.PageShift
	for vpn := first; vpn <= last; vpn++ {
		m.pageBlk[vpn] = append(m.pageBlk[vpn], b)
		m.codePages[vpn] = true
	}
}

// decodedSuffix looks for a live translation-cache block whose decoded
// instructions already cover pc (the mid-block resume case: a Run
// budget expired inside a block, and the next Run re-enters at an
// address that is interior to a still-live translation). When the
// cached suffix provably matches what a fresh decode at pc would
// produce, it is returned and the re-decode is skipped.
//
// The match conditions mirror decodeInsts' stop rules exactly:
//
//   - the suffix must lie entirely inside pc's page (a fresh decode
//     stops at the page end, which can differ from the host block's);
//   - the suffix must either end in a block-terminating op or be at
//     least maxLen long (in which case the fresh decode would stop at
//     the same length cap); anything shorter without a terminator was
//     capped by the *host* block's limits and a fresh decode would
//     keep going.
//
// Decoded instructions are position-independent (absolute targets), so
// sharing the suffix storage is safe; blocks treat insts as immutable.
// A live block's decode can go stale only if guest memory under it is
// rewritten without invalidation — stores invalidate via codePages, so
// the only writer that bypasses it is syscall device DMA, which
// already executes stale whole blocks in that (unsupported) case; the
// memo does not widen the contract.
func (m *Machine) decodedSuffix(pc uint64, maxLen int) []dinst {
	pageEnd := (pc &^ (mem.PageBytes - 1)) + mem.PageBytes
	for _, b := range m.pageBlk[pc>>mem.PageShift] {
		if b.dead || pc < b.pc {
			continue
		}
		off := pc - b.pc
		if off%isa.InstBytes != 0 {
			continue
		}
		i := int(off / isa.InstBytes)
		if i >= len(b.insts) {
			continue
		}
		suffix := b.insts[i:]
		n := len(suffix)
		if n > maxLen {
			suffix = suffix[:maxLen]
			n = maxLen
		}
		if pc+uint64(n)*isa.InstBytes > pageEnd {
			continue
		}
		if !suffix[n-1].endsBlock && n < maxLen {
			continue
		}
		return suffix
	}
	return nil
}

// translate decodes a basic block starting at pc and installs it in the
// translation cache.
func (m *Machine) translate(pc uint64) *block {
	if m.tcCount >= m.cfg.TCMaxBlocks {
		m.flushTC()
	}
	m.tlbLookup(pc >> mem.PageShift) // instruction-side translation
	insts := m.decodedSuffix(pc, m.cfg.MaxBlockLen)
	if insts == nil {
		var err error
		insts, err = decodeInsts(m.mem.Peek, pc, m.cfg.MaxBlockLen)
		if err != nil {
			panic(err.Error())
		}
	}
	b := &block{pc: pc, insts: insts}
	m.installBlock(b)
	m.stats.TCTranslations++
	m.tcStamp = newTCStamp()
	return b
}

// lookup returns the live translation for pc, translating on miss.
func (m *Machine) lookup(pc uint64) *block {
	if b, ok := m.tc[pc]; ok && !b.dead {
		return b
	}
	return m.translate(pc)
}

// invalidatePage drops every translation overlapping the page (the
// self-modifying-code path). Each dropped block increments the CPU
// metric, as in the paper. Blocks spanning into a neighbouring page are
// also removed from that page's list: without the compaction a dead
// pointer would stay in the neighbour's slice forever, so SMC-heavy
// guests would grow pageBlk without bound.
func (m *Machine) invalidatePage(vpn uint64) {
	blocks := m.pageBlk[vpn]
	killed := false
	for _, b := range blocks {
		if !b.dead {
			b.dead = true
			delete(m.tc, b.pc)
			m.tcCount--
			m.stats.TCInvalidations++
			killed = true
			first := b.pc >> mem.PageShift
			last := (b.pc + uint64(len(b.insts))*isa.InstBytes - 1) >> mem.PageShift
			for p := first; p <= last; p++ {
				if p != vpn {
					m.compactPageBlk(p)
				}
			}
		}
	}
	delete(m.pageBlk, vpn)
	m.codePages[vpn] = false
	if killed {
		m.tcStamp = newTCStamp()
	}
}

// compactPageBlk removes dead blocks from page p's list, dropping the
// list (and the code-page flag, making future stores to p skip the
// invalidation scan) when no live block remains. Purely host-side
// bookkeeping: a page with only dead blocks contributes no
// invalidations either way.
func (m *Machine) compactPageBlk(p uint64) {
	blocks, ok := m.pageBlk[p]
	if !ok {
		return
	}
	live := blocks[:0]
	for _, b := range blocks {
		if !b.dead {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		delete(m.pageBlk, p)
		m.codePages[p] = false
		return
	}
	for i := len(live); i < len(blocks); i++ {
		blocks[i] = nil // release dead pointers
	}
	m.pageBlk[p] = live
}

// flushTC performs a Dynamo-style full translation-cache flush.
func (m *Machine) flushTC() {
	m.stats.TCFlushes++
	m.stats.TCInvalidations += uint64(m.tcCount)
	for _, b := range m.tc {
		b.dead = true
	}
	m.tc = make(map[uint64]*block)
	for vpn := range m.pageBlk {
		m.codePages[vpn] = false
	}
	m.pageBlk = make(map[uint64][]*block)
	m.tcCount = 0
	m.tcStamp = newTCStamp()
}

// TCBlocks returns the number of live translation-cache blocks.
func (m *Machine) TCBlocks() int { return m.tcCount }

// LiveTraces returns the number of superblock traces attached to live
// translation-cache blocks — an observability hook for tests and tools
// confirming the trace machinery engaged on a workload; the count has
// no architectural meaning.
func (m *Machine) LiveTraces() int {
	n := 0
	for _, b := range m.tc {
		if !b.dead && b.tr != nil {
			n++
		}
	}
	return n
}

// Run executes up to n guest instructions, stopping early on HALT or
// SysExit. If sink is non-nil the machine runs in event-generating mode
// and delivers one Event per retired instruction, batched through
// sink.OnEvents. Run returns the number of instructions actually
// executed; every buffered event has been delivered by the time it
// returns.
//
// Architectural behaviour is identical in both modes, independent of
// how a long run is partitioned into Run calls, and independent of the
// event batch capacity; only translation-cache and instruction-TLB
// bookkeeping may differ across partitionings (resuming mid-block
// forces a fresh translation, as in a real DBT).
func (m *Machine) Run(n uint64, sink BatchSink) uint64 {
	if m.halted {
		return 0
	}
	if sink == nil {
		return m.run(n, nil)
	}
	if cap(m.batch) == 0 {
		m.batch = make([]Event, 0, m.cfg.EventBatch)
	}
	return m.run(n, sink)
}

// run is the interpreter hot loop shared by both modes: bs is nil in
// fast mode and a batch-delivering sink in event mode.
//
// The loop holds the guest machine state in function locals — the full
// register file (regs), the last-vpn TLB entry (tlbLast), and deltas
// for the five per-retirement statistics — and spills them back to the
// Machine only where something actually reads them: in full before
// syscalls (the syscall layer reads stats.Instructions and reads and
// writes registers) and on every return path; tlbLast alone before any
// translation-cache lookup that may translate (translate performs the
// instruction-side TLB lookup against m.tlbLast). Event delivery needs
// no spill at all: sinks receive events, never machine pointers.
// Everywhere else m.regs/m.stats/m.pc are stale — nothing observes
// them there, the machine being single-threaded per goroutine. The one
// visible consequence is that a panic out of the hot loop (illegal
// instruction, guest memory out of range) leaves the Machine's
// registers and statistics behind the point of the fault; panics are
// fatal diagnostics, not a recovery surface, so no caller inspects
// machine state across one.
//
// Execution is organised around superblock traces (see trace.go): a
// block's entry counter (heat) triggers formation of a straight-line
// chain of its recorded dominant successors, and the loop then runs
// segment to segment with a single guard per boundary — the actual
// successor pc must equal the next segment's pc and that block must be
// live. A guard pass is observationally identical to the baseline's
// chain hit or stat-free lookup of the same live block; a guard miss
// falls back to the per-block chain memo and, on a chain miss, to the
// spill-flush-lookup path exactly as the baseline would. Traces never
// translate anything, so the TC/TLB statistic trajectories are
// bit-identical to the per-block interpreter's.
//
// The per-instruction budget check is hoisted: each block iteration
// executes a window insts[:min(len, n-executed)], so the inner loop
// carries no budget compare. Falling off a budget-capped window leaves
// m.pc at the next unexecuted address, exactly like the baseline's
// mid-block budget exit.
func (m *Machine) run(n uint64, bs BatchSink) uint64 {
	var (
		executed uint64 // instructions retired this call
		instBase uint64 // executed at the last Instructions spill
		sReads   uint64 // MemReads delta since last spill
		sWrites  uint64 // MemWrites delta
		sBr      uint64 // Branches delta
		sTaken   uint64 // TakenBr delta
		bi       int
		batch    []Event
		blk      *block // current block; live whenever blockLoop runs it
		tr       *trace // non-nil: blk is tr.segs[seg]
		seg      int
	)
	regs := m.regs
	tlbLast := m.tlbLast
	l2m := m.tlbL2Mask & (tlbL2Size - 1)
	// Direct view of the guest page table for the inlined load/store
	// fast path. The slices alias the Memory's own tables (fixed length
	// for its lifetime), so materialisation and copy-on-write unsealing
	// through the slow path are immediately visible here.
	pages, sealed := m.mem.Raw()
	npages := uint64(len(pages))
	if bs != nil {
		batch = m.batch[:cap(m.batch)]
	}

dispatch:
	for {
		// Sync point before returning or consulting the translation
		// cache: the instruction-side TLB view must be current
		// (translate performs its lookup against m.tlbLast) and buffered
		// events must be delivered in order before translation, which
		// can panic on illegal code. Registers and the statistic deltas
		// stay local — nothing on the lookup path reads them — and are
		// spilled in full only on the return path below.
		m.tlbLast = tlbLast
		if bi != 0 {
			m.batchFlushes++
			bs.OnEvents(batch[:bi])
			bi = 0
		}
		if executed == n {
			m.regs = regs
			m.stats.Instructions += executed - instBase
			m.stats.MemReads += sReads
			m.stats.MemWrites += sWrites
			m.stats.Branches += sBr
			m.stats.TakenBr += sTaken
			return executed
		}
		blk = m.lookup(m.pc)
		tlbLast = m.tlbLast
		// Entry profiling: enter an existing trace, or heat the block
		// toward forming one.
		tr = nil
		if t := blk.tr; t != nil {
			tr, seg = t, 0
		} else if blk.heat < traceHotThreshold {
			blk.heat++
		} else {
			blk.heat = 0
			if t := m.formTrace(blk); t != nil {
				blk.tr = t
				tr, seg = t, 0
			}
		}

	blockLoop:
		for {
			insts := blk.insts
			pc := blk.pc
			blkDead := false
			win := insts
			if room := n - executed; room < uint64(len(win)) {
				win = win[:room]
			}
			var nextPC uint64
			exited := false
			// Manual index: a fused case consumes its partner slot too,
			// advancing ii past it after retirement.
			for ii := 0; ii < len(win); ii++ {
				in := &win[ii]
				nextPC = pc + isa.InstBytes
				var memAddr, target uint64
				taken := false
				fused := false

				switch in.xc {
				case xNop:
				case xHalt:
					m.halted = true
				case xAdd:
					regs[in.rd&31] = regs[in.rs1&31] + regs[in.rs2&31]
				case xSub:
					regs[in.rd&31] = regs[in.rs1&31] - regs[in.rs2&31]
				case xMul:
					regs[in.rd&31] = regs[in.rs1&31] * regs[in.rs2&31]
				case xDiv:
					if d := regs[in.rs2&31]; d != 0 {
						regs[in.rd&31] = uint64(int64(regs[in.rs1&31]) / int64(d))
					} else {
						regs[in.rd&31] = 0
					}
				case xDivZ:
					if d := regs[in.rs2&31]; d != 0 {
						_ = uint64(int64(regs[in.rs1&31]) / int64(d))
					}
				case xAnd:
					regs[in.rd&31] = regs[in.rs1&31] & regs[in.rs2&31]
				case xOr:
					regs[in.rd&31] = regs[in.rs1&31] | regs[in.rs2&31]
				case xXor:
					regs[in.rd&31] = regs[in.rs1&31] ^ regs[in.rs2&31]
				case xSll:
					regs[in.rd&31] = regs[in.rs1&31] << (regs[in.rs2&31] & 63)
				case xSrl:
					regs[in.rd&31] = regs[in.rs1&31] >> (regs[in.rs2&31] & 63)
				case xSra:
					regs[in.rd&31] = uint64(int64(regs[in.rs1&31]) >> (regs[in.rs2&31] & 63))
				case xSlt:
					if int64(regs[in.rs1&31]) < int64(regs[in.rs2&31]) {
						regs[in.rd&31] = 1
					} else {
						regs[in.rd&31] = 0
					}
				case xSltu:
					if regs[in.rs1&31] < regs[in.rs2&31] {
						regs[in.rd&31] = 1
					} else {
						regs[in.rd&31] = 0
					}
				case xAddi:
					regs[in.rd&31] = regs[in.rs1&31] + uint64(int64(in.imm))
				case xAndi:
					regs[in.rd&31] = regs[in.rs1&31] & uint64(int64(in.imm))
				case xOri:
					regs[in.rd&31] = regs[in.rs1&31] | uint64(int64(in.imm))
				case xXori:
					regs[in.rd&31] = regs[in.rs1&31] ^ uint64(int64(in.imm))
				case xSlli:
					regs[in.rd&31] = regs[in.rs1&31] << (uint32(in.imm) & 63)
				case xSrli:
					regs[in.rd&31] = regs[in.rs1&31] >> (uint32(in.imm) & 63)
				case xSrai:
					regs[in.rd&31] = uint64(int64(regs[in.rs1&31]) >> (uint32(in.imm) & 63))
				case xSlti:
					if int64(regs[in.rs1&31]) < int64(in.imm) {
						regs[in.rd&31] = 1
					} else {
						regs[in.rd&31] = 0
					}
				case xMovi:
					regs[in.rd&31] = uint64(int64(in.imm))
				case xMovhi:
					regs[in.rd&31] |= uint64(uint32(in.imm)) << 32

				// Fused ALU pairs. Each executes its own operation, then —
				// when the partner slot lies inside the budget window — the
				// partner's too, in program order against the same register
				// file, and marks the pair fused so the retirement path
				// below accounts for both. With the partner outside the
				// window only the first half runs, and the budget exit
				// leaves m.pc at the partner, whose slot kept its original
				// unfused kind.
				case xPSlliAdd:
					regs[in.rd&31] = regs[in.rs1&31] << (uint32(in.imm) & 63)
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] + regs[in2.rs2&31]
						fused = true
					}
				case xPAddAddi:
					regs[in.rd&31] = regs[in.rs1&31] + regs[in.rs2&31]
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] + uint64(int64(in2.imm))
						fused = true
					}
				case xPAndSlli:
					regs[in.rd&31] = regs[in.rs1&31] & regs[in.rs2&31]
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] << (uint32(in2.imm) & 63)
						fused = true
					}
				case xPSrliAnd:
					regs[in.rd&31] = regs[in.rs1&31] >> (uint32(in.imm) & 63)
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] & regs[in2.rs2&31]
						fused = true
					}
				case xPXorAdd:
					regs[in.rd&31] = regs[in.rs1&31] ^ regs[in.rs2&31]
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] + regs[in2.rs2&31]
						fused = true
					}
				case xPAddiSrli:
					regs[in.rd&31] = regs[in.rs1&31] + uint64(int64(in.imm))
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] >> (uint32(in2.imm) & 63)
						fused = true
					}
				case xPAddXor:
					regs[in.rd&31] = regs[in.rs1&31] + regs[in.rs2&31]
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] ^ regs[in2.rs2&31]
						fused = true
					}
				case xPAddiAnd:
					regs[in.rd&31] = regs[in.rs1&31] + uint64(int64(in.imm))
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] & regs[in2.rs2&31]
						fused = true
					}
				case xPAddSrli:
					regs[in.rd&31] = regs[in.rs1&31] + regs[in.rs2&31]
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] >> (uint32(in2.imm) & 63)
						fused = true
					}
				case xPSrliAndi:
					regs[in.rd&31] = regs[in.rs1&31] >> (uint32(in.imm) & 63)
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] & uint64(int64(in2.imm))
						fused = true
					}
				case xPAddSlli:
					regs[in.rd&31] = regs[in.rs1&31] + regs[in.rs2&31]
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] << (uint32(in2.imm) & 63)
						fused = true
					}
				case xPSlliOr:
					regs[in.rd&31] = regs[in.rs1&31] << (uint32(in.imm) & 63)
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] | regs[in2.rs2&31]
						fused = true
					}
				case xPOrSrli:
					regs[in.rd&31] = regs[in.rs1&31] | regs[in.rs2&31]
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] >> (uint32(in2.imm) & 63)
						fused = true
					}
				case xPAddiSlli:
					regs[in.rd&31] = regs[in.rs1&31] + uint64(int64(in.imm))
					if ii+1 < len(win) {
						in2 := &win[ii+1]
						regs[in2.rd&31] = regs[in2.rs1&31] << (uint32(in2.imm) & 63)
						fused = true
					}

				case xLd:
					memAddr = (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					vpn := memAddr >> mem.PageShift
					if v := vpn + 1; v != tlbLast {
						if m.tlbL2[vpn&l2m] == v {
							tlbLast = v
						} else {
							tlbLast = m.tlbRefill(vpn)
						}
					}
					if vpn < npages && pages[vpn] != nil {
						regs[in.rd&31] = pages[vpn][memAddr>>3&(mem.WordsPerPage-1)]
					} else {
						v, faulted := m.mem.Read64(memAddr)
						if faulted {
							m.stats.PageFaults++
							m.stats.Exceptions++
						}
						regs[in.rd&31] = v
					}
					sReads++
				case xLdZ:
					memAddr = (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					vpn := memAddr >> mem.PageShift
					if v := vpn + 1; v != tlbLast {
						if m.tlbL2[vpn&l2m] == v {
							tlbLast = v
						} else {
							tlbLast = m.tlbRefill(vpn)
						}
					}
					// Mapped pages need no work (the loaded value is
					// discarded); only the materialising/faulting path has
					// observable effects.
					if vpn >= npages || pages[vpn] == nil {
						if _, faulted := m.mem.Read64(memAddr); faulted {
							m.stats.PageFaults++
							m.stats.Exceptions++
						}
					}
					sReads++
				case xSt:
					memAddr = (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					vpn := memAddr >> mem.PageShift
					if v := vpn + 1; v != tlbLast {
						if m.tlbL2[vpn&l2m] == v {
							tlbLast = v
						} else {
							tlbLast = m.tlbRefill(vpn)
						}
					}
					if vpn < npages && pages[vpn] != nil && !sealed[vpn] {
						pages[vpn][memAddr>>3&(mem.WordsPerPage-1)] = regs[in.rs2&31]
					} else if m.mem.Write64(memAddr, regs[in.rs2&31]) {
						m.stats.PageFaults++
						m.stats.Exceptions++
					}
					sWrites++
					if m.codePages[vpn] {
						m.invalidatePage(vpn)
						blkDead = blk.dead
					}
				case xBeq:
					sBr++
					if regs[in.rs1&31] == regs[in.rs2&31] {
						taken = true
						sTaken++
						target = in.target
						nextPC = target
					}
				case xBne:
					sBr++
					if regs[in.rs1&31] != regs[in.rs2&31] {
						taken = true
						sTaken++
						target = in.target
						nextPC = target
					}
				case xBlt:
					sBr++
					if int64(regs[in.rs1&31]) < int64(regs[in.rs2&31]) {
						taken = true
						sTaken++
						target = in.target
						nextPC = target
					}
				case xBge:
					sBr++
					if int64(regs[in.rs1&31]) >= int64(regs[in.rs2&31]) {
						taken = true
						sTaken++
						target = in.target
						nextPC = target
					}
				case xJmp:
					target = in.target
					nextPC = target
				case xJal:
					regs[in.rd&31] = nextPC
					target = in.target
					nextPC = target
				case xJalr:
					t := (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					regs[in.rd&31] = nextPC
					target = t
					nextPC = t
				case xJalrZ:
					t := (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					target = t
					nextPC = t
				case xFadd:
					regs[in.rd&31] = f2b(b2f(regs[in.rs1&31]) + b2f(regs[in.rs2&31]))
				case xFsub:
					regs[in.rd&31] = f2b(b2f(regs[in.rs1&31]) - b2f(regs[in.rs2&31]))
				case xFmul:
					regs[in.rd&31] = f2b(b2f(regs[in.rs1&31]) * b2f(regs[in.rs2&31]))
				case xFdiv:
					regs[in.rd&31] = f2b(b2f(regs[in.rs1&31]) / b2f(regs[in.rs2&31]))
				case xFcvtIF:
					regs[in.rd&31] = f2b(float64(int64(regs[in.rs1&31])))
				case xFcvtFI:
					regs[in.rd&31] = uint64(int64(b2f(regs[in.rs1&31])))
				case xSys:
					// Spill before servicing: the syscall layer reads
					// stats.Instructions (SysPhaseMark, the fixed-IPC
					// time base) and reads/writes registers, and the
					// timing-feedback path (SysTimeQuery) reads state
					// the sink owns — the modelled cycle count — which
					// must be caught up to the retired-instruction
					// stream, exactly as under per-event delivery.
					m.regs = regs
					m.tlbLast = tlbLast
					m.stats.Instructions += executed - instBase
					instBase = executed
					m.stats.MemReads += sReads
					m.stats.MemWrites += sWrites
					m.stats.Branches += sBr
					m.stats.TakenBr += sTaken
					sReads, sWrites, sBr, sTaken = 0, 0, 0, 0
					if bi != 0 {
						m.batchFlushes++
						bs.OnEvents(batch[:bi])
						bi = 0
					}
					m.syscall(in.imm)
					regs = m.regs
				default:
					panic(fmt.Sprintf("vm: unimplemented opcode %v at pc=%#x", in.op, pc))
				}

				executed++

				if bs != nil {
					// Indexed store into the reused buffer: every field
					// is assigned, so the previous batch's contents
					// never leak.
					e := &batch[bi]
					e.PC, e.NextPC, e.MemAddr, e.Target = pc, nextPC, memAddr, target
					e.Op, e.Class, e.Rd, e.Rs1, e.Rs2 = in.op, in.cls, in.rd, in.rs1, in.rs2
					e.Taken = taken
					bi++
					if bi == len(batch) {
						// Sinks receive events, never machine pointers,
						// so delivery needs no spill.
						m.batchFlushes++
						bs.OnEvents(batch)
						bi = 0
					}
				}

				if fused {
					// The partner already executed inside the fused case;
					// retire it with the scaffolding a standalone ALU slot
					// would get: its own count, its own event (pure ALU —
					// no memory address, target, or taken bit), and the
					// same flush point the unfused sequence would hit.
					executed++
					if bs != nil {
						in2 := &win[ii+1]
						e := &batch[bi]
						e.PC, e.NextPC, e.MemAddr, e.Target = nextPC, nextPC+isa.InstBytes, 0, 0
						e.Op, e.Class, e.Rd, e.Rs1, e.Rs2 = in2.op, in2.cls, in2.rd, in2.rs1, in2.rs2
						e.Taken = false
						bi++
						if bi == len(batch) {
							m.batchFlushes++
							bs.OnEvents(batch)
							bi = 0
						}
					}
					ii++
					nextPC += isa.InstBytes
				}

				// Only control transfers change nextPC, and every one
				// of them ends the block, so the sequential
				// fall-through test reduces to the kind range (every
				// terminating kind sorts at or after xBeq; the kind is
				// already in a register for the dispatch switch) plus
				// the block dying under a store to its own page
				// (blkDead is refreshed only by the store case —
				// nothing else can kill the current block mid-flight).
				if in.xc >= xBeq || blkDead {
					if m.halted {
						m.pc = pc
						m.regs = regs
						m.tlbLast = tlbLast
						m.stats.Instructions += executed - instBase
						instBase = executed
						m.stats.MemReads += sReads
						m.stats.MemWrites += sWrites
						m.stats.Branches += sBr
						m.stats.TakenBr += sTaken
						sReads, sWrites, sBr, sTaken = 0, 0, 0, 0
						if bi != 0 {
							m.batchFlushes++
							bs.OnEvents(batch[:bi])
							bi = 0
						}
						return executed
					}
					if blkDead {
						// The block died under us mid-execution; the
						// remainder must be re-looked-up (and, as in the
						// baseline, retranslated). A trace through a dead
						// constituent is torn down and re-forms later.
						m.pc = nextPC
						if tr != nil {
							killTrace(tr)
							tr = nil
						}
						continue dispatch
					}
					exited = true
					break
				}
				pc = nextPC
			}

			if !exited {
				// Fell off the window end: either the budget expired
				// mid-block (return with m.pc at the next unexecuted
				// instruction, like the baseline's per-inst budget
				// exit), or a length/page-capped block fell through.
				if executed == n {
					m.pc = pc
					continue dispatch
				}
				nextPC = pc
			}

			// A live block ended (control transfer, or fall-through
			// with budget remaining). Resolve the successor: trace
			// guard first, then the per-block chain memo, then the
			// spill-flush-lookup slow path. Note the slow path must run
			// even when the budget is exhausted — the baseline performs
			// the chain-miss lookup (and its translation statistics)
			// before noticing the budget, and golden trajectories
			// depend on it.
			if tr != nil {
				next := seg + 1
				if next == len(tr.segs) {
					if !tr.loop {
						// Ran off the trace tail: a normal exit, not a
						// guard miss.
						tr = nil
						goto chain
					}
					next = 0
				}
				want := tr.segs[next]
				if nextPC == want.pc && !want.dead {
					tr.misses = 0
					seg = next
					blk = want
					continue blockLoop
				}
				if nextPC == want.pc {
					// Expected successor was invalidated: the trace can
					// never complete again; tear it down and let the
					// chain path re-lookup (and retranslate) as the
					// baseline would.
					killTrace(tr)
				} else {
					// Path divergence: keep the trace (it may still be
					// the dominant path) unless it keeps missing.
					tr.misses++
					if tr.misses >= traceMissLimit {
						killTrace(tr)
					}
				}
				tr = nil
			}
		chain:
			if blk.chainPC == nextPC {
				if nb := blk.chainBlk; nb != nil && !nb.dead {
					blk = nb
					// Entry profiling, as at dispatch.
					if t := blk.tr; t != nil {
						tr, seg = t, 0
					} else if blk.heat < traceHotThreshold {
						blk.heat++
					} else {
						blk.heat = 0
						if t := m.formTrace(blk); t != nil {
							blk.tr = t
							tr, seg = t, 0
						}
					}
					continue blockLoop
				}
			}
			// Chain miss: sync the instruction-TLB view, deliver
			// buffered events, look up (which may translate — even at
			// budget end), and remember the successor. Registers and
			// stat deltas stay local: translation reads neither.
			m.pc = nextPC
			m.tlbLast = tlbLast
			if bi != 0 {
				m.batchFlushes++
				bs.OnEvents(batch[:bi])
				bi = 0
			}
			nb := m.lookup(nextPC)
			tlbLast = m.tlbLast
			blk.chainPC = nextPC
			blk.chainBlk = nb
			blk = nb
			if t := blk.tr; t != nil {
				tr, seg = t, 0
			} else if blk.heat < traceHotThreshold {
				blk.heat++
			} else {
				blk.heat = 0
				if t := m.formTrace(blk); t != nil {
					blk.tr = t
					tr, seg = t, 0
				}
			}
			continue blockLoop
		}
	}
}

// RunToCompletion executes until the guest halts, in chunks.
func (m *Machine) RunToCompletion(chunk uint64, sink BatchSink) uint64 {
	if chunk == 0 {
		chunk = 1 << 20
	}
	var total uint64
	for !m.halted {
		n := m.Run(chunk, sink)
		total += n
		if n == 0 {
			break
		}
	}
	return total
}
