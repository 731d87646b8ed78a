// Package cpu models the processing elements of the emulated MPSoC as
// instruction-accurate, in-order 32-bit RISC cores executing the R32 ISA.
//
// The core is the unit the paper's HW sniffers monitor for thermal purposes:
// each cycle it is in exactly one of three modes — active (issuing an
// instruction), stalled (waiting for the memory hierarchy/interconnect) or
// idle (halted) — and the per-mode cycle counts drive the activity-based
// power model. Cores issue at most one instruction per cycle; all memory
// timing comes from the attached memory controller, so cache, bus and NoC
// configuration changes are directly visible in the stall statistics.
package cpu

import (
	"fmt"

	"thermemu/internal/isa"
	"thermemu/internal/mem"
	"thermemu/internal/sniffer"
)

// Kind identifies a core preset. The framework ports several core types
// (the paper uses a PowerPC405 hard-core and Microblaze soft-cores on the
// FPGA, and models ARM7/ARM11 cores for the thermal studies); in this
// reproduction they share the R32 ISA and differ in their physical
// parameters (default clock, power model, FPGA resource cost).
type Kind int

// Core presets.
const (
	Microblaze Kind = iota // RISC-32 soft-core
	PPC405                 // hard-core
	ARM7                   // low-power core of floorplan (a)
	ARM11                  // high-performance core of floorplan (b)
	VLIW2                  // dual-issue VLIW-class core (TC4SOC-style)
)

// String returns the preset name.
func (k Kind) String() string {
	switch k {
	case Microblaze:
		return "microblaze"
	case PPC405:
		return "ppc405"
	case ARM7:
		return "arm7"
	case ARM11:
		return "arm11"
	case VLIW2:
		return "vliw2"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// DefaultFreqHz returns the nominal clock of the preset.
func (k Kind) DefaultFreqHz() uint64 {
	switch k {
	case ARM11:
		return 500e6
	default:
		return 100e6
	}
}

// State is the per-cycle execution mode observed by the sniffers.
type State int

// Execution modes.
const (
	Active State = iota
	Stalled
	Idle
)

// String returns the mode name.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Stalled:
		return "stalled"
	case Idle:
		return "idle"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Stats holds the per-core counters a count-logging sniffer exports.
type Stats struct {
	Instructions uint64
	ActiveCycles uint64
	StallCycles  uint64
	IdleCycles   uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Taken        uint64
	// Paired counts cycles where a dual-issue core committed two
	// instructions (always 0 for single-issue cores).
	Paired uint64
}

// Cycles returns the total cycles the core has been clocked.
func (s Stats) Cycles() uint64 { return s.ActiveCycles + s.StallCycles + s.IdleCycles }

// Activity returns the fraction of cycles the core was active (its dynamic
// power activity factor).
func (s Stats) Activity() float64 {
	if c := s.Cycles(); c > 0 {
		return float64(s.ActiveCycles) / float64(c)
	}
	return 0
}

// Core is one in-order R32 processing element.
type Core struct {
	id    int
	name  string
	kind  Kind
	ctrl  *mem.Controller
	regs  [isa.NumRegs]uint32
	pc    uint32
	stall uint64
	halt  bool
	fault error
	state State
	stats Stats
	// issueWidth is the maximum instructions issued per cycle (1 or 2:
	// the dual-issue mode models the VLIW-class cores of Section 3.1).
	issueWidth int
	// tracer, when set, observes every committed instruction.
	tracer func(pc uint32, word uint32)
	// dec memoizes instruction decode for the fetch/dispatch hot path.
	// Decode is pure, so the table never needs invalidation.
	dec isa.DecodeCache
	// act, when attached, mirrors every charged cycle into a count-logging
	// activity sniffer. It sits in Step/AccrueStall/AccrueIdle — the single
	// choke point all stepping kernels flow through — so span-accrued and
	// per-cycle stepping produce identical sniffer counters.
	act *sniffer.Activity
	// blocks, when enabled, caches pre-decoded straight-line blocks for
	// StepBlocks (see block.go). Derived state: flushed on Reset and
	// RestoreState, invalidated by code-range stores, never serialized.
	blocks *blockCache
}

// New creates a core attached to its memory controller. The VLIW2 preset
// issues up to two instructions per cycle; every other preset is
// single-issue.
func New(id int, kind Kind, ctrl *mem.Controller) *Core {
	width := 1
	if kind == VLIW2 {
		width = 2
	}
	return &Core{id: id, name: fmt.Sprintf("%s%d", kind, id), kind: kind,
		ctrl: ctrl, state: Active, issueWidth: width}
}

// SetTracer installs a per-committed-instruction observer (nil disables).
// Tracing is intended for debugging custom workloads; it sees the pc and
// raw instruction word of every commit, including the second slot of
// dual-issue bundles.
func (c *Core) SetTracer(fn func(pc uint32, word uint32)) { c.tracer = fn }

// IssueWidth returns the core's maximum instructions per cycle.
func (c *Core) IssueWidth() int { return c.issueWidth }

// SetIssueWidth overrides the issue width (1 or 2).
func (c *Core) SetIssueWidth(w int) {
	if w < 1 {
		w = 1
	} else if w > 2 {
		w = 2
	}
	c.issueWidth = w
}

// ID returns the core index within the platform.
func (c *Core) ID() int { return c.id }

// Name returns the core instance name.
func (c *Core) Name() string { return c.name }

// Kind returns the core preset.
func (c *Core) Kind() Kind { return c.kind }

// Controller returns the attached memory controller.
func (c *Core) Controller() *mem.Controller { return c.ctrl }

// PC returns the current program counter.
func (c *Core) PC() uint32 { return c.pc }

// SetPC sets the program counter (used by loaders).
func (c *Core) SetPC(pc uint32) { c.pc = pc }

// Reg returns the value of register r.
func (c *Core) Reg(r uint8) uint32 { return c.regs[r] }

// SetReg sets register r (register 0 stays zero).
func (c *Core) SetReg(r uint8, v uint32) {
	if r != 0 {
		c.regs[r] = v
	}
}

// Halted reports whether the core has executed HALT or faulted.
func (c *Core) Halted() bool { return c.halt || c.fault != nil }

// Fault returns the fault that stopped the core, if any.
func (c *Core) Fault() error { return c.fault }

// State returns the mode of the most recent cycle.
func (c *Core) State() State { return c.state }

// Stats returns the cumulative counters.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (the core state is preserved).
func (c *Core) ResetStats() { c.stats = Stats{} }

// Reset returns the core to its power-on state at the given entry point.
// Translated blocks are discarded: program loaders write code through
// Memory.WriteBytes (below the controller's code-write hook) and then
// Reset, so the flush here is what keeps the block cache coherent across
// reloads.
func (c *Core) Reset(entry uint32) {
	c.regs = [isa.NumRegs]uint32{}
	c.pc = entry
	c.stall = 0
	c.halt = false
	c.fault = nil
	c.state = Active
	c.stats = Stats{}
	c.flushBlocks()
}

// AccrueIdle charges n idle cycles to a halted core without stepping it.
// The stepping kernels use it to batch the idle time of cores that halted
// before the end of a span, so their statistics match cycle-by-cycle serial
// stepping. n == 0 leaves the core's observed state untouched.
func (c *Core) AccrueIdle(n uint64) {
	if n == 0 {
		return
	}
	c.state = Idle
	c.stats.IdleCycles += n
	if c.act != nil {
		c.act.Accrue(sniffer.ModeIdle, n)
	}
}

// AccrueStall charges n stalled cycles in one step, consuming n cycles of
// the outstanding memory-stall countdown. It is the bulk equivalent of n
// consecutive Step calls on a stalled core: those steps only decrement the
// countdown and bump the stall counter, so skip-ahead kernels may jump the
// span and settle the books here without perturbing any other state.
// n == 0 leaves the core's observed state untouched; n beyond the
// outstanding stall is a kernel bug and panics.
func (c *Core) AccrueStall(n uint64) {
	if n == 0 {
		return
	}
	if n > c.stall {
		panic(fmt.Sprintf("cpu: %s: AccrueStall(%d) exceeds outstanding stall %d", c.name, n, c.stall))
	}
	c.stall -= n
	c.state = Stalled
	c.stats.StallCycles += n
	if c.act != nil {
		c.act.Accrue(sniffer.ModeStalled, n)
	}
}

// StallRemaining returns the outstanding memory-stall cycles: the number of
// consecutive future Step calls that would find the core stalled. 0 means
// the core issues an instruction on its next step (unless halted).
func (c *Core) StallRemaining() uint64 { return c.stall }

// WakeNever is the wake cycle of a halted core: no future step can make it
// issue an instruction again.
const WakeNever = ^uint64(0)

// WakeCycle returns the next cycle, at or after now, on which the core will
// issue an instruction — the end of its memory-stall countdown, or WakeNever
// once halted or faulted. Cycles before the wake cycle are pure stall time
// and may be charged in bulk with AccrueStall.
func (c *Core) WakeCycle(now uint64) uint64 {
	if c.Halted() {
		return WakeNever
	}
	return now + c.stall
}

// AttachActivity mirrors the core's per-mode cycle accounting into a
// count-logging activity sniffer (nil detaches). Attached at the core
// rather than a kernel so every stepping path — per-cycle or run-ahead —
// feeds the same counters identically.
func (c *Core) AttachActivity(a *sniffer.Activity) { c.act = a }

// Step advances the core by one clock cycle at platform cycle now.
func (c *Core) Step(now uint64) {
	if c.Halted() {
		c.state = Idle
		c.stats.IdleCycles++
		if c.act != nil {
			c.act.Accrue(sniffer.ModeIdle, 1)
		}
		return
	}
	if c.stall > 0 {
		c.stall--
		c.state = Stalled
		c.stats.StallCycles++
		if c.act != nil {
			c.act.Accrue(sniffer.ModeStalled, 1)
		}
		return
	}
	c.state = Active
	c.stats.ActiveCycles++
	if c.act != nil {
		c.act.Accrue(sniffer.ModeActive, 1)
	}
	w, fstall, err := c.ctrl.Fetch(now, c.pc)
	if err != nil {
		c.fault = err
		return
	}
	i1 := c.dec.Decode(w)
	// Dual issue: if the first operation does not end the bundle, peek the
	// next word and issue it in the same cycle when no structural or data
	// hazard exists between the pair.
	if c.issueWidth > 1 && !endsBundle(i1) {
		w2, f2, err := c.ctrl.Fetch(now, c.pc+4)
		if err == nil {
			i2 := c.dec.Decode(w2)
			if pairable(i1, i2) {
				if c.tracer != nil {
					c.tracer(c.pc, w)
					c.tracer(c.pc+4, w2)
				}
				d1, err := c.exec(now, i1)
				if err != nil {
					c.fault = err
					return
				}
				d2, err := c.exec(now, i2)
				if err != nil {
					c.fault = err
					return
				}
				c.stall = fstall + f2 + d1 + d2
				c.stats.Instructions += 2
				c.stats.Paired++
				return
			}
		}
		// Unpairable or second fetch faulted: fall through to single issue
		// (a real fetch unit would not commit the speculative fetch).
	}
	if c.tracer != nil {
		c.tracer(c.pc, w)
	}
	dstall, err := c.exec(now, i1)
	if err != nil {
		c.fault = err
		return
	}
	c.stall = fstall + dstall
	c.stats.Instructions++
}

// endsBundle reports whether the instruction must be the last of an issue
// bundle (control transfers and halt redirect the fetch stream).
func endsBundle(in isa.Instr) bool {
	switch {
	case in.Op == isa.OpJal, in.Op == isa.OpJalr, in.Op == isa.OpHalt:
		return true
	case in.Op.IsBranch():
		return true
	}
	return false
}

// writesReg returns the destination register an instruction writes, or
// (0, false) if it writes none.
func writesReg(in isa.Instr) (uint8, bool) {
	switch {
	case in.Op == isa.OpRType, in.Op == isa.OpLui, in.Op == isa.OpJalr,
		in.Op.IsLoad(), in.Op == isa.OpSwap:
		return in.Rd, in.Rd != 0
	case in.Op == isa.OpJal:
		return isa.LinkReg, true
	case in.Op.IsBranch(), in.Op.IsStore(), in.Op == isa.OpHalt:
		return 0, false
	default: // ALU immediates
		return in.Rd, in.Rd != 0
	}
}

// readsRegs lists the registers an instruction reads.
func readsRegs(in isa.Instr) [3]uint8 {
	switch {
	case in.Op == isa.OpRType:
		return [3]uint8{in.Rs1, in.Rs2, 0}
	case in.Op.IsBranch():
		return [3]uint8{in.Rs1, in.Rs2, 0}
	case in.Op.IsStore(), in.Op == isa.OpSwap:
		return [3]uint8{in.Rs1, in.Rd, 0} // stores read the data register
	case in.Op == isa.OpLui, in.Op == isa.OpHalt, in.Op == isa.OpJal:
		return [3]uint8{0, 0, 0}
	default:
		return [3]uint8{in.Rs1, 0, 0}
	}
}

// pairable reports whether i2 can issue in the same cycle as i1: at most
// one memory operation per bundle, no read-after-write on i1's result and
// no write-after-write collision.
func pairable(i1, i2 isa.Instr) bool {
	if i1.Op.IsMem() && i2.Op.IsMem() {
		return false // one memory port
	}
	rd1, writes1 := writesReg(i1)
	if writes1 {
		for _, r := range readsRegs(i2) {
			if r == rd1 {
				return false // RAW
			}
		}
		if rd2, writes2 := writesReg(i2); writes2 && rd2 == rd1 {
			return false // WAW
		}
	}
	return true
}

// exec executes one decoded instruction, returning extra stall cycles.
func (c *Core) exec(now uint64, in isa.Instr) (uint64, error) {
	next := c.pc + 4
	var stall uint64
	switch {
	case in.Op == isa.OpRType:
		v, err := aluR(in.Funct, c.regs[in.Rs1], c.regs[in.Rs2])
		if err != nil {
			return 0, fmt.Errorf("cpu: %s at pc=0x%x: %w", c.name, c.pc, err)
		}
		c.SetReg(in.Rd, v)
	case in.Op == isa.OpHalt:
		c.halt = true
	case in.Op == isa.OpLui:
		c.SetReg(in.Rd, uint32(in.Imm)<<16)
	case in.Op == isa.OpJal:
		c.SetReg(isa.LinkReg, next)
		next = uint32(int64(next) + int64(in.Imm)*4)
		c.stats.Branches++
		c.stats.Taken++
	case in.Op == isa.OpJalr:
		t := (c.regs[in.Rs1] + uint32(in.Imm)) &^ 3
		c.SetReg(in.Rd, next)
		next = t
		c.stats.Branches++
		c.stats.Taken++
	case in.Op.IsBranch():
		c.stats.Branches++
		if takeBranch(in.Op, c.regs[in.Rs1], c.regs[in.Rs2]) {
			c.stats.Taken++
			next = uint32(int64(next) + int64(in.Imm)*4)
		}
	case in.Op.IsMem():
		var err error
		stall, err = c.memOp(now, in)
		if err != nil {
			return 0, err
		}
	default:
		v, ok := aluI(in.Op, c.regs[in.Rs1], in.Imm)
		if !ok {
			return 0, fmt.Errorf("cpu: %s at pc=0x%x: illegal opcode %d", c.name, c.pc, in.Op)
		}
		c.SetReg(in.Rd, v)
	}
	c.pc = next
	return stall, nil
}

func (c *Core) memOp(now uint64, in isa.Instr) (uint64, error) {
	addr := c.regs[in.Rs1] + uint32(in.Imm)
	switch in.Op {
	case isa.OpLw:
		c.stats.Loads++
		v, stall, err := c.ctrl.ReadWord(now, addr)
		if err == nil {
			c.SetReg(in.Rd, v)
		}
		return stall, err
	case isa.OpLb:
		c.stats.Loads++
		v, stall, err := c.ctrl.LoadByte(now, addr)
		if err == nil {
			c.SetReg(in.Rd, uint32(int32(int8(v))))
		}
		return stall, err
	case isa.OpLbu:
		c.stats.Loads++
		v, stall, err := c.ctrl.LoadByte(now, addr)
		if err == nil {
			c.SetReg(in.Rd, uint32(v))
		}
		return stall, err
	case isa.OpSw:
		c.stats.Stores++
		return c.ctrl.WriteWord(now, addr, c.regs[in.Rd])
	case isa.OpSb:
		c.stats.Stores++
		return c.ctrl.StoreByte(now, addr, byte(c.regs[in.Rd]))
	case isa.OpSwap:
		c.stats.Loads++
		c.stats.Stores++
		old, stall, err := c.ctrl.Swap(now, addr, c.regs[in.Rd])
		if err == nil {
			c.SetReg(in.Rd, old)
		}
		return stall, err
	}
	return 0, fmt.Errorf("cpu: %s: not a memory op: %v", c.name, in.Op)
}

func aluR(fn isa.Funct, a, b uint32) (uint32, error) {
	switch fn {
	case isa.FnAdd:
		return a + b, nil
	case isa.FnSub:
		return a - b, nil
	case isa.FnAnd:
		return a & b, nil
	case isa.FnOr:
		return a | b, nil
	case isa.FnXor:
		return a ^ b, nil
	case isa.FnNor:
		return ^(a | b), nil
	case isa.FnSll:
		return a << (b & 31), nil
	case isa.FnSrl:
		return a >> (b & 31), nil
	case isa.FnSra:
		return uint32(int32(a) >> (b & 31)), nil
	case isa.FnSlt:
		if int32(a) < int32(b) {
			return 1, nil
		}
		return 0, nil
	case isa.FnSltu:
		if a < b {
			return 1, nil
		}
		return 0, nil
	case isa.FnMul:
		return a * b, nil
	case isa.FnDiv:
		if b == 0 {
			return 0xFFFFFFFF, nil // RISC-V style: div by zero yields -1
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return a, nil // overflow: quotient = dividend
		}
		return uint32(int32(a) / int32(b)), nil
	case isa.FnDivu:
		if b == 0 {
			return 0xFFFFFFFF, nil
		}
		return a / b, nil
	case isa.FnRem:
		if b == 0 {
			return a, nil // rem by zero yields dividend
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return 0, nil
		}
		return uint32(int32(a) % int32(b)), nil
	case isa.FnRemu:
		if b == 0 {
			return a, nil
		}
		return a % b, nil
	}
	return 0, fmt.Errorf("illegal R-type funct %d", fn)
}

func aluI(op isa.Opcode, a uint32, imm int32) (uint32, bool) {
	switch op {
	case isa.OpAddi:
		return a + uint32(imm), true
	case isa.OpAndi:
		return a & uint32(imm), true
	case isa.OpOri:
		return a | uint32(imm), true
	case isa.OpXori:
		return a ^ uint32(imm), true
	case isa.OpSlti:
		if int32(a) < imm {
			return 1, true
		}
		return 0, true
	case isa.OpSltiu:
		if a < uint32(imm) {
			return 1, true
		}
		return 0, true
	case isa.OpSlli:
		return a << (uint32(imm) & 31), true
	case isa.OpSrli:
		return a >> (uint32(imm) & 31), true
	case isa.OpSrai:
		return uint32(int32(a) >> (uint32(imm) & 31)), true
	}
	return 0, false
}

func takeBranch(op isa.Opcode, a, b uint32) bool {
	switch op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int32(a) < int32(b)
	case isa.OpBge:
		return int32(a) >= int32(b)
	case isa.OpBltu:
		return a < b
	case isa.OpBgeu:
		return a >= b
	}
	return false
}
