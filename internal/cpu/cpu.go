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
	}
	return fmt.Sprintf("kind(%d)", int(k))
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
	// tracer, when set, observes every committed instruction.
	tracer func(pc uint32, word uint32)
	// dec memoizes instruction decode for the fetch/dispatch hot path.
	// Decode is pure, so the table never needs invalidation.
	dec isa.DecodeCache
	// blocks, when enabled, caches pre-decoded straight-line blocks for
	// StepBlocks (see block.go). Derived state: flushed on Reset and
	// RestoreState, invalidated by code-range stores, never serialized.
	blocks *blockCache
}

// New creates a core attached to its memory controller.
func New(id int, kind Kind, ctrl *mem.Controller) *Core {
	return &Core{id: id, name: fmt.Sprintf("%s%d", kind, id), kind: kind,
		ctrl: ctrl, state: Active}
}

// SetTracer installs a per-committed-instruction observer (nil disables).
// Tracing is intended for debugging custom workloads; it sees the pc and
// raw instruction word of every commit.
func (c *Core) SetTracer(fn func(pc uint32, word uint32)) { c.tracer = fn }

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

// Step advances the core by one clock cycle at platform cycle now.
func (c *Core) Step(now uint64) {
	if c.Halted() {
		c.state = Idle
		c.stats.IdleCycles++
		return
	}
	if c.stall > 0 {
		c.stall--
		c.state = Stalled
		c.stats.StallCycles++
		return
	}
	c.state = Active
	c.stats.ActiveCycles++
	w, fstall, err := c.ctrl.Fetch(now, c.pc)
	if err != nil {
		c.fault = err
		return
	}
	if c.tracer != nil {
		c.tracer(c.pc, w)
	}
	dstall, err := c.exec(now, c.dec.Decode(w))
	if err != nil {
		c.fault = err
		return
	}
	c.stall = fstall + dstall
	c.stats.Instructions++
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
