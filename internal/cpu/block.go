package cpu

// This file implements threaded-code basic-block dispatch: straight-line
// R32 blocks are discovered at first execution (isa.ScanBlock), pre-decoded
// into arrays of blockOp records whose run fields point at shared op
// functions, and executed whole. Per instruction this removes the Step call
// overhead, the address-range binary search, the functional fetch load, the
// decode-memo lookup and the two-level exec switch; per *window* it removes
// the serial event kernel's per-cycle scan. Everything observable — stats,
// stall accounting, activity-sniffer counters, memory-controller counters,
// fault semantics, pc on fault — is bit-identical to Step, which the golden
// differential matrix enforces.
//
// The block cache is derived state, keyed by code address. It is therefore
// invalidated by stores into translated ranges (the memory controller's
// code-write hook), discarded on Reset (program reloads) and on
// RestoreState (checkpoint resume restores to a cold cache), and never
// serialized. Contrast isa.DecodeCache, which is keyed by the instruction
// word itself and needs none of this.
//
// Translation allocates nothing per block. Blocks, their blockOps and the
// segments of their batched-fetch plans (embedded in the block by value)
// are carved from small per-core chunks, and a fresh chunk is allocated
// only when the current one runs out, so a window that translates a few
// blocks usually touches no heap at all. A flush (capacity, Reset,
// RestoreState) abandons the current chunks and never rewinds them:
// StepBlocks can hold a pending batched fetch against the plan of a block
// that the translate it is waiting on has just flushed, and that plan must
// stay intact until the pending fetches settle. Abandoned chunks are
// reclaimed by the garbage collector once nothing points into them.

import (
	"thermemu/internal/isa"
	"thermemu/internal/mem"
	"thermemu/internal/sniffer"
)

const (
	// blockTableBits sizes the direct-mapped front table over the block map.
	blockTableBits = 9
	blockTableSize = 1 << blockTableBits
	// blockCacheMax bounds live blocks; beyond it the cache is flushed
	// wholesale (pathological self-modifying or mid-block-entry workloads).
	blockCacheMax = 4096
	// blockPageBits is the invalidation granularity of the page index.
	blockPageBits = 12
	blockPageSize = 1 << blockPageBits
	// blockChunk and opChunk size the storage chunks blocks and blockOps
	// are carved from: small, so the unused tail of a core's last chunk
	// costs little on many-core platforms.
	blockChunk = 16
	opChunk    = 128
)

// blockOp is one pre-decoded instruction of a translated block: a threaded
// dispatch target plus the flattened fields it needs. run executes the
// operation (registers, memory, pc, branch/load/store counters), returning
// the data-stall cycles; on a memory fault it sets c.fault and leaves pc at
// the faulting instruction, exactly like Core.exec.
type blockOp struct {
	run  func(c *Core, x *blockOp, now uint64) uint64
	rd   uint8
	rs1  uint8
	rs2  uint8
	imm  int32
	mem  bool   // a load, store or swap: subject to StepBlocks' sharedBefore bound
	pc   uint32 // fetch address of this instruction
	next uint32 // pc+4, or the taken target for jal/branches
}

// block is one translated straight-line run, entered only at entry.
type block struct {
	entry uint32
	end   uint32 // exclusive byte end: entry + 4*len(ops)
	valid bool
	ops   []blockOp
	fp    *mem.FetchPath
	// plan is the block's batched-fetch plan, usable when batch is set
	// (the fetch path can batch).
	plan  mem.BatchPlan
	batch bool
}

func (b *block) overlaps(addr, n uint32) bool {
	return addr < b.end && b.entry < addr+n
}

type blockTabEntry struct {
	pc uint32
	b  *block
}

// BlockStats counts block-cache events (telemetry only; not digested and
// not checkpointed).
type BlockStats struct {
	Translated  uint64 // blocks translated
	Invalidated uint64 // blocks killed by code-range stores
	Flushes     uint64 // wholesale discards (reset, restore, capacity)
}

// blockCache holds one core's translated blocks. All accesses happen on the
// core's own stepping goroutine: translation and lookup from StepBlocks,
// invalidation from the controller's code-write hook, which fires
// synchronously inside the core's own store instructions.
type blockCache struct {
	table   [blockTableSize]blockTabEntry
	blocks  map[uint32]*block
	pages   map[uint32][]*block
	fps     []*mem.FetchPath
	scratch []isa.Instr
	// blockBuf, opBuf and plans hold the unused tails of the current
	// storage chunks (see the file comment).
	blockBuf []block
	opBuf    []blockOp
	plans    mem.PlanStore
	// lo/hi bound every address ever covered by a translated block
	// (monotone — stale-but-safe after invalidations), so the store hook
	// rejects non-code stores with two compares.
	lo, hi  uint32
	haveAny bool
	stats   BlockStats
}

func newBlockCache() *blockCache {
	return &blockCache{
		blocks: make(map[uint32]*block),
		pages:  make(map[uint32][]*block),
	}
}

// EnableBlocks switches the core to translated basic-block dispatch: Step
// keeps working unchanged, and StepBlocks becomes available to the kernels.
// Call after the memory controller's address map is final. Idempotent.
func (c *Core) EnableBlocks() {
	if c.blocks != nil {
		return
	}
	c.blocks = newBlockCache()
	c.ctrl.SetCodeWriteHook(c.blocks.noteWrite)
}

// BlocksEnabled reports whether block dispatch is available.
func (c *Core) BlocksEnabled() bool { return c.blocks != nil }

// BlockStats returns the block-cache telemetry (zero when disabled).
func (c *Core) BlockStats() BlockStats {
	if c.blocks == nil {
		return BlockStats{}
	}
	return c.blocks.stats
}

// flushBlocks discards every translated block (derived state: program
// reloads and checkpoint restores must start cold).
func (c *Core) flushBlocks() {
	if c.blocks != nil {
		c.blocks.flush()
	}
}

func (bc *blockCache) flush() {
	bc.table = [blockTableSize]blockTabEntry{}
	bc.blocks = make(map[uint32]*block)
	bc.pages = make(map[uint32][]*block)
	// Abandon the storage chunks, never rewind them: a pending batched
	// fetch may still name the plan of a block discarded here.
	bc.blockBuf, bc.opBuf, bc.plans = nil, nil, mem.PlanStore{}
	bc.stats.Flushes++
}

// carve returns n zeroed elements from the unused tail *buf of the current
// storage chunk, starting a new chunk of max(n, chunk) elements when the
// tail is too short. The result's capacity is n, so it can never grow into
// a later carve.
func carve[T any](buf *[]T, n, chunk int) []T {
	if n > len(*buf) {
		*buf = make([]T, max(n, chunk))
	}
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// lookup returns the valid block entered at pc, or nil.
func (bc *blockCache) lookup(pc uint32) *block {
	e := &bc.table[(pc>>2)&(blockTableSize-1)]
	if b := e.b; b != nil && e.pc == pc && b.valid {
		return b
	}
	b := bc.blocks[pc]
	if b == nil || !b.valid {
		return nil
	}
	e.pc, e.b = pc, b
	return b
}

// noteWrite is the controller code-write hook: invalidate every block
// overlapping the stored bytes. The bounds check keeps the cost of
// non-code stores at two compares.
func (bc *blockCache) noteWrite(addr, n uint32) {
	if !bc.haveAny || addr >= bc.hi || addr+n <= bc.lo {
		return
	}
	first := addr &^ (blockPageSize - 1)
	last := (addr + n - 1) &^ (blockPageSize - 1)
	for pg := first; ; pg += blockPageSize {
		list := bc.pages[pg]
		for i := 0; i < len(list); {
			b := list[i]
			if b.valid && b.overlaps(addr, n) {
				b.valid = false
				delete(bc.blocks, b.entry)
				bc.stats.Invalidated++
			}
			if !b.valid {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				continue
			}
			i++
		}
		if len(list) == 0 {
			delete(bc.pages, pg)
		} else {
			bc.pages[pg] = list
		}
		if pg == last {
			break
		}
	}
}

// translate discovers, decodes and registers the block entered at pc, or
// returns nil when pc is not block-dispatchable (unaligned, unmapped, not
// plain-memory-backed, or starting at a non-executable word — the
// interpreter handles those identically to before).
func (c *Core) translate(pc uint32) *block {
	bc := c.blocks
	if pc%4 != 0 {
		return nil
	}
	fp := bc.fetchPath(c.ctrl, pc)
	if fp == nil {
		return nil
	}
	instrs, _ := isa.ScanBlock(pc, func(a uint32) (uint32, bool) {
		if !fp.Contains(a) || !fp.Contains(a+3) {
			return 0, false
		}
		return fp.PeekWord(a), true
	}, bc.scratch[:0])
	bc.scratch = instrs[:0]
	if len(instrs) == 0 {
		return nil
	}
	if len(bc.blocks) >= blockCacheMax {
		bc.flush()
	}
	b := &carve(&bc.blockBuf, 1, blockChunk)[0]
	b.entry = pc
	b.end = pc + uint32(len(instrs))*4
	b.valid = true
	b.ops = carve(&bc.opBuf, len(instrs), opChunk)
	b.fp = fp
	for i, in := range instrs {
		emitOp(&b.ops[i], in, pc+uint32(i)*4)
	}
	b.batch = fp.InitBatchPlan(&b.plan, pc, uint32(len(instrs)), &bc.plans)
	bc.blocks[pc] = b
	for pg := pc &^ (blockPageSize - 1); pg < b.end; pg += blockPageSize {
		bc.pages[pg] = append(bc.pages[pg], b)
	}
	if !bc.haveAny || pc < bc.lo {
		bc.lo = pc
	}
	if !bc.haveAny || b.end > bc.hi {
		bc.hi = b.end
	}
	bc.haveAny = true
	bc.stats.Translated++
	return b
}

// fetchPath resolves (and memoizes) the plain-memory fetch path covering pc.
func (bc *blockCache) fetchPath(ctrl *mem.Controller, pc uint32) *mem.FetchPath {
	for _, fp := range bc.fps {
		if fp.Contains(pc) {
			return fp
		}
	}
	fp := ctrl.FetchPathFor(pc)
	if fp != nil {
		bc.fps = append(bc.fps, fp)
	}
	return fp
}

// StepBlocks advances the core through translated blocks for up to max
// cycles starting at platform cycle now, returning the cycles consumed, the
// instructions issued and the stall cycles settled in bulk. A zero cycle
// count means block dispatch cannot run from the current state (disabled,
// tracing, dual-issue, stalled, halted, an undispatchable pc, or a first
// instruction the sharedBefore bound stops) and the caller must fall back
// to Step. Every observable effect over the consumed cycles is
// bit-identical to that many Step calls.
//
// sharedBefore orders the core against the rest of the platform: a memory
// operation issued at or after it whose effective address the controller
// does not report Private stops the core before any side effect of that
// instruction (no fetch, no statistics). An access observer
// sees every instruction, fetches included, and another core's
// sniffer-control store can switch an attached activity sniffer mid-run,
// so with either attached the whole window is clamped to sharedBefore.
func (c *Core) StepBlocks(now, max, sharedBefore uint64) (cycles, steps, skipped uint64) {
	if c.blocks == nil || max == 0 || c.tracer != nil || c.issueWidth > 1 ||
		c.halt || c.fault != nil || c.stall > 0 {
		return 0, 0, 0
	}
	bc := c.blocks
	ctrl := c.ctrl
	cyc, end := now, now+max
	if (c.act != nil || ctrl.Observed()) && sharedBefore < end {
		end = sharedBefore
	}
	// issued counts instructions committed this invocation; the per-core
	// active-cycle and instruction counters are settled from it in one add
	// at the exit (their intermediate values are unobservable inside the
	// window), keeping two counter updates off the per-instruction path.
	var issued uint64
	// Batched-fetch state, carried ACROSS block executions: while consecutive
	// executions re-enter the same Ready plan (the hot-loop case), their
	// fetches accumulate in fetched and settle in a single exact Settle call
	// when the plan changes, the per-instruction fetch path resumes, or the
	// window exits. pendPlan/pendFp name the plan the pending count belongs
	// to; zero pending means the per-instruction path is in use.
	var (
		pendPlan *mem.BatchPlan
		pendFp   *mem.FetchPath
		fetched  uint32
		fHit     uint64
	)
dispatch:
	for cyc < end {
		b := bc.lookup(c.pc)
		if b == nil {
			if b = c.translate(c.pc); b == nil {
				break
			}
		}
		fp := b.fp
		ops := b.ops
		batched := false
		if b.batch {
			if &b.plan == pendPlan && fetched > 0 {
				// Same plan re-entered with fetches still pending: batched
				// fetches defer all icache traffic and data accesses go to
				// the dcache, so nothing can have moved the icache epoch
				// since Ready proved residency — it is still Ready.
				batched = true
			} else if h, ok := fp.Ready(&b.plan); ok {
				if fetched > 0 {
					pendFp.Settle(pendPlan, fetched)
					fetched = 0
				}
				pendPlan, pendFp, fHit = &b.plan, fp, h
				batched = true
			}
		}
		if !batched && fetched > 0 {
			// Leaving the batched regime: settle before any per-instruction
			// fetch interleaves with the icache directory.
			pendFp.Settle(pendPlan, fetched)
			fetched = 0
			pendPlan = nil
		}
		for i := range ops {
			x := &ops[i]
			if cyc >= end || cyc >= sharedBefore && x.mem && !ctrl.Private(c.regs[x.rs1]+uint32(x.imm)) {
				break dispatch
			}
			// Active cycle: same charge order as Step.
			c.state = Active
			if c.act != nil {
				c.act.Accrue(sniffer.ModeActive, 1)
			}
			c.pc = x.pc // keep the Step invariant: pc is the issuing instruction
			var fstall uint64
			if batched {
				fetched++
				fstall = fHit
			} else {
				fstall = fp.Fetch(cyc, x.pc)
			}
			dstall := x.run(c, x, cyc)
			cyc++
			if c.fault != nil {
				// Faulting Step: cycle charged (the faulting issue is an
				// active cycle), no commit, stall untouched (the fetch
				// preceding the fault did happen).
				c.stats.ActiveCycles++
				break dispatch
			}
			c.stall = fstall + dstall
			issued++
			if c.halt {
				break dispatch
			}
			if c.stall > 0 {
				// Settle the stall span in bulk, clipped to the window.
				span := c.stall
				if left := end - cyc; span > left {
					span = left
				}
				c.AccrueStall(span)
				skipped += span
				cyc += span
				if c.stall > 0 {
					break dispatch
				}
			}
			if !b.valid {
				// Self-modified underfoot by this very instruction: the
				// commit above is complete, so resume at c.pc with a fresh
				// translation — the next instruction executes new code, the
				// same cycle the interpreter would run it.
				break
			}
		}
		// Fell off the end (straight-line exit, taken control transfer, or
		// invalidation): c.pc already points at the successor; pending
		// batched fetches stay pending in case the same block runs next.
	}
	if fetched > 0 {
		pendFp.Settle(pendPlan, fetched)
	}
	c.stats.ActiveCycles += issued
	c.stats.Instructions += issued
	return cyc - now, issued, skipped
}

// emitOp fills one blockOp from a decoded instruction at address pc. The
// instruction is executable (ScanBlock guarantees it), so the undefined
// opcode/funct arms of the interpreter are unreachable here.
func emitOp(x *blockOp, in isa.Instr, pc uint32) {
	x.rd, x.rs1, x.rs2, x.imm = in.Rd, in.Rs1, in.Rs2, in.Imm
	x.pc = pc
	x.next = pc + 4
	switch {
	case in.Op == isa.OpRType:
		x.run = rtypeOps[in.Funct]
	case in.Op == isa.OpHalt:
		x.run = opHalt
	case in.Op == isa.OpLui:
		x.run = opLui
	case in.Op == isa.OpJal:
		x.next = uint32(int64(pc+4) + int64(in.Imm)*4)
		x.run = opJal
	case in.Op == isa.OpJalr:
		x.run = opJalr
	case in.Op.IsBranch():
		x.next = uint32(int64(pc+4) + int64(in.Imm)*4) // taken target
		x.run = branchOps[in.Op-isa.OpBeq]
	case in.Op.IsMem():
		x.run = memOps[in.Op]
		x.mem = true
	default:
		x.run = aluIOps[in.Op]
	}
}

// setReg mirrors Core.SetReg without the method-call overhead on the
// threaded hot path.
func setReg(c *Core, r uint8, v uint32) {
	if r != 0 {
		c.regs[r] = v
	}
}

// R-type ALU ops (one function per funct; edge-case semantics mirror aluR).
var rtypeOps = [...]func(*Core, *blockOp, uint64) uint64{
	isa.FnAdd: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]+c.regs[x.rs2])
		c.pc = x.next
		return 0
	},
	isa.FnSub: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]-c.regs[x.rs2])
		c.pc = x.next
		return 0
	},
	isa.FnAnd: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]&c.regs[x.rs2])
		c.pc = x.next
		return 0
	},
	isa.FnOr: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]|c.regs[x.rs2])
		c.pc = x.next
		return 0
	},
	isa.FnXor: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]^c.regs[x.rs2])
		c.pc = x.next
		return 0
	},
	isa.FnNor: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, ^(c.regs[x.rs1] | c.regs[x.rs2]))
		c.pc = x.next
		return 0
	},
	isa.FnSll: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]<<(c.regs[x.rs2]&31))
		c.pc = x.next
		return 0
	},
	isa.FnSrl: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]>>(c.regs[x.rs2]&31))
		c.pc = x.next
		return 0
	},
	isa.FnSra: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, uint32(int32(c.regs[x.rs1])>>(c.regs[x.rs2]&31)))
		c.pc = x.next
		return 0
	},
	isa.FnSlt: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, b2u(int32(c.regs[x.rs1]) < int32(c.regs[x.rs2])))
		c.pc = x.next
		return 0
	},
	isa.FnSltu: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, b2u(c.regs[x.rs1] < c.regs[x.rs2]))
		c.pc = x.next
		return 0
	},
	isa.FnMul: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]*c.regs[x.rs2])
		c.pc = x.next
		return 0
	},
	isa.FnDiv: func(c *Core, x *blockOp, _ uint64) uint64 {
		v, _ := aluR(isa.FnDiv, c.regs[x.rs1], c.regs[x.rs2])
		setReg(c, x.rd, v)
		c.pc = x.next
		return 0
	},
	isa.FnDivu: func(c *Core, x *blockOp, _ uint64) uint64 {
		v, _ := aluR(isa.FnDivu, c.regs[x.rs1], c.regs[x.rs2])
		setReg(c, x.rd, v)
		c.pc = x.next
		return 0
	},
	isa.FnRem: func(c *Core, x *blockOp, _ uint64) uint64 {
		v, _ := aluR(isa.FnRem, c.regs[x.rs1], c.regs[x.rs2])
		setReg(c, x.rd, v)
		c.pc = x.next
		return 0
	},
	isa.FnRemu: func(c *Core, x *blockOp, _ uint64) uint64 {
		v, _ := aluR(isa.FnRemu, c.regs[x.rs1], c.regs[x.rs2])
		setReg(c, x.rd, v)
		c.pc = x.next
		return 0
	},
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Immediate ALU ops, indexed by opcode (only the aluI opcodes are filled).
var aluIOps = [isa.OpSwap + 1]func(*Core, *blockOp, uint64) uint64{
	isa.OpAddi: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]+uint32(x.imm))
		c.pc = x.next
		return 0
	},
	isa.OpAndi: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]&uint32(x.imm))
		c.pc = x.next
		return 0
	},
	isa.OpOri: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]|uint32(x.imm))
		c.pc = x.next
		return 0
	},
	isa.OpXori: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]^uint32(x.imm))
		c.pc = x.next
		return 0
	},
	isa.OpSlti: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, b2u(int32(c.regs[x.rs1]) < x.imm))
		c.pc = x.next
		return 0
	},
	isa.OpSltiu: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, b2u(c.regs[x.rs1] < uint32(x.imm)))
		c.pc = x.next
		return 0
	},
	isa.OpSlli: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]<<(uint32(x.imm)&31))
		c.pc = x.next
		return 0
	},
	isa.OpSrli: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, c.regs[x.rs1]>>(uint32(x.imm)&31))
		c.pc = x.next
		return 0
	},
	isa.OpSrai: func(c *Core, x *blockOp, _ uint64) uint64 {
		setReg(c, x.rd, uint32(int32(c.regs[x.rs1])>>(uint32(x.imm)&31)))
		c.pc = x.next
		return 0
	},
}

func opLui(c *Core, x *blockOp, _ uint64) uint64 {
	setReg(c, x.rd, uint32(x.imm)<<16)
	c.pc = x.next
	return 0
}

func opHalt(c *Core, x *blockOp, _ uint64) uint64 {
	c.halt = true
	c.pc = x.next // exec advances pc past HALT before stopping
	return 0
}

func opJal(c *Core, x *blockOp, _ uint64) uint64 {
	setReg(c, isa.LinkReg, x.pc+4)
	c.pc = x.next // pre-computed target
	c.stats.Branches++
	c.stats.Taken++
	return 0
}

func opJalr(c *Core, x *blockOp, _ uint64) uint64 {
	t := (c.regs[x.rs1] + uint32(x.imm)) &^ 3
	setReg(c, x.rd, x.pc+4)
	c.pc = t
	c.stats.Branches++
	c.stats.Taken++
	return 0
}

// Conditional branches, indexed by op - OpBeq. x.next is the taken target.
var branchOps = [...]func(*Core, *blockOp, uint64) uint64{
	func(c *Core, x *blockOp, _ uint64) uint64 { return branch(c, x, c.regs[x.rs1] == c.regs[x.rs2]) },
	func(c *Core, x *blockOp, _ uint64) uint64 { return branch(c, x, c.regs[x.rs1] != c.regs[x.rs2]) },
	func(c *Core, x *blockOp, _ uint64) uint64 {
		return branch(c, x, int32(c.regs[x.rs1]) < int32(c.regs[x.rs2]))
	},
	func(c *Core, x *blockOp, _ uint64) uint64 {
		return branch(c, x, int32(c.regs[x.rs1]) >= int32(c.regs[x.rs2]))
	},
	func(c *Core, x *blockOp, _ uint64) uint64 { return branch(c, x, c.regs[x.rs1] < c.regs[x.rs2]) },
	func(c *Core, x *blockOp, _ uint64) uint64 { return branch(c, x, c.regs[x.rs1] >= c.regs[x.rs2]) },
}

func branch(c *Core, x *blockOp, take bool) uint64 {
	c.stats.Branches++
	if take {
		c.stats.Taken++
		c.pc = x.next
	} else {
		c.pc = x.pc + 4
	}
	return 0
}

// Memory ops, indexed by opcode. Stats bumps precede the access and faults
// leave pc at the instruction, mirroring Core.memOp/exec exactly.
var memOps = [isa.OpSwap + 1]func(*Core, *blockOp, uint64) uint64{
	isa.OpLw: func(c *Core, x *blockOp, now uint64) uint64 {
		c.stats.Loads++
		v, stall, err := c.ctrl.ReadWord(now, c.regs[x.rs1]+uint32(x.imm))
		if err != nil {
			c.fault = err
			return 0
		}
		setReg(c, x.rd, v)
		c.pc = x.next
		return stall
	},
	isa.OpLb: func(c *Core, x *blockOp, now uint64) uint64 {
		c.stats.Loads++
		v, stall, err := c.ctrl.LoadByte(now, c.regs[x.rs1]+uint32(x.imm))
		if err != nil {
			c.fault = err
			return 0
		}
		setReg(c, x.rd, uint32(int32(int8(v))))
		c.pc = x.next
		return stall
	},
	isa.OpLbu: func(c *Core, x *blockOp, now uint64) uint64 {
		c.stats.Loads++
		v, stall, err := c.ctrl.LoadByte(now, c.regs[x.rs1]+uint32(x.imm))
		if err != nil {
			c.fault = err
			return 0
		}
		setReg(c, x.rd, uint32(v))
		c.pc = x.next
		return stall
	},
	isa.OpSw: func(c *Core, x *blockOp, now uint64) uint64 {
		c.stats.Stores++
		stall, err := c.ctrl.WriteWord(now, c.regs[x.rs1]+uint32(x.imm), c.regs[x.rd])
		if err != nil {
			c.fault = err
			return 0
		}
		c.pc = x.next
		return stall
	},
	isa.OpSb: func(c *Core, x *blockOp, now uint64) uint64 {
		c.stats.Stores++
		stall, err := c.ctrl.StoreByte(now, c.regs[x.rs1]+uint32(x.imm), byte(c.regs[x.rd]))
		if err != nil {
			c.fault = err
			return 0
		}
		c.pc = x.next
		return stall
	},
	isa.OpSwap: func(c *Core, x *blockOp, now uint64) uint64 {
		c.stats.Loads++
		c.stats.Stores++
		old, stall, err := c.ctrl.Swap(now, c.regs[x.rs1]+uint32(x.imm), c.regs[x.rd])
		if err != nil {
			c.fault = err
			return 0
		}
		setReg(c, x.rd, old)
		c.pc = x.next
		return stall
	},
}
