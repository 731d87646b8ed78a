package cpu

// This file implements opcode-switched basic-block dispatch: straight-line
// R32 blocks are discovered at first execution (isa.ScanBlock), pre-decoded
// into arrays of blockOp records, and run by a small executor (execOps)
// whose switch on each record's op code compiles to a jump table — no call
// per instruction, so the loop state stays in registers — while StepBlocks
// settles cycles, fetches and stalls once per stretch of ops the executor
// runs. Per instruction this
// removes the Step call overhead, the address-range binary search, the
// functional fetch load, the decode-memo lookup and the two-level exec
// switch; a load that hits the data cache is one controller call
// (mem.Controller.ReadWordHit). Inside the controller's hit window (the
// last cacheable, Memory-backed range a data access resolved, cleared by
// AttachCaches and AddRange) that call is one range compare,
// one cache probe and one 32-bit read. Per *window* it removes the serial
// event kernel's per-cycle scan. Everything observable — stats,
// stall accounting, memory-controller counters,
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

// blockOp is one pre-decoded instruction of a translated block: an op code
// that selects its case in the executor (execOps) or in StepBlocks's
// per-op path, plus the flattened fields that case needs. Executing it
// updates registers, memory, pc and the branch/load/store counters and
// yields the data-stall cycles; on a memory fault it sets c.fault and
// leaves pc at the faulting instruction, exactly like Core.exec.
type blockOp struct {
	op   uint8 // an x* op code
	rd   uint8
	rs1  uint8
	rs2  uint8
	imm  int32
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
	// headStops is the head hint: the executor would stop at ops[0],
	// because the head is halt or a memory op other than a lw that
	// completed without stalling on the block's last entry. StepBlocks
	// then starts the block in its per-op path, and the executor does
	// not repeat it on its back-edge. Derived state like the block
	// itself: never checkpointed, and gone with the block on a flush.
	headStops bool
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
// tracing, stalled, halted, an undispatchable pc, or a first instruction
// the sharedBefore bound stops) and the caller must fall back
// to Step. Every observable effect over the consumed cycles is
// bit-identical to that many Step calls.
//
// sharedBefore orders the core against the rest of the platform: a memory
// operation issued at or after it whose effective address the controller
// does not report Private stops the core before any side effect of that
// instruction (no fetch, no statistics).
//
// Ops run through the executor (execOps) wherever it can complete them, and
// the bookkeeping those ops share — cycles, issued instructions, batched
// fetches, pc, state and stall — is settled once per stretch it returns.
// The per-op path below handles only the ops the executor stops at: halt,
// and memory ops other than a lw that completes as a dcache hit.
func (c *Core) StepBlocks(now, max, sharedBefore uint64) (cycles, steps, skipped uint64) {
	if c.blocks == nil || max == 0 || c.tracer != nil ||
		c.halt || c.fault != nil || c.stall > 0 {
		return 0, 0, 0
	}
	bc := c.blocks
	ctrl := c.ctrl
	cyc, end := now, now+max
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
		// The executor may run a stretch of several ops per call only when
		// nothing has to be charged between them: batched fetches that hit
		// with zero latency. Otherwise it runs one op per call and that op's
		// fetch is charged below.
		stretch := batched && fHit == 0
		// stops is set when the executor is known to stop at ops[i]: the
		// block's head hint, or the op a stretch just stopped at.
		stops := b.headStops
		for i := 0; i < len(ops); {
			if cyc >= end {
				break dispatch
			}
			x := &ops[i]
			var (
				j, n   int
				npc    uint32
				dstall uint64
			)
			lim := 1
			if !stops {
				if stretch {
					lim = int(min(end-cyc, stretchMax))
				}
				j, n, npc, dstall = c.execOps(b, i, lim, cyc, sharedBefore)
			}
			stops = n > 0 && n < lim && dstall == 0
			// The per-op path takes x when the executor ran nothing: x is
			// halt or a memory op it did not complete. A memory op issued
			// at or after sharedBefore must prove it is private before any
			// side effect.
			perOp := n == 0
			if perOp {
				if x.op >= xLw && cyc >= sharedBefore && !ctrl.Private(c.regs[x.rs1]+uint32(x.imm)) {
					break dispatch
				}
				j, n, npc = i+1, 1, x.next
			}
			// Active cycle: same charge order as Step. c.pc already names
			// x: a block is entered at c.pc and only its last op can
			// transfer control.
			c.state = Active
			var fstall uint64
			if batched {
				fetched += uint32(n)
				fstall = fHit
			} else {
				fstall = fp.Fetch(cyc, x.pc)
			}
			if perOp {
				if x.op == xHalt {
					c.halt = true // exec advances pc past HALT before stopping
				} else {
					// The interpreter's memory op recomputes the address
					// from the same registers.
					op := isa.OpSwap
					if x.op != xSwap {
						op = isa.OpLw + isa.Opcode(x.op-xLw)
					}
					var err error
					if dstall, err = c.memOp(cyc, isa.Instr{Op: op, Rd: x.rd, Rs1: x.rs1, Imm: x.imm}); err != nil {
						// Faulting Step: cycle charged (the faulting issue is
						// an active cycle), no commit, pc left at the
						// faulting instruction, stall untouched (the fetch
						// preceding the fault did happen).
						c.fault = err
						c.stats.ActiveCycles++
						cyc++
						break dispatch
					}
				}
				if i == 0 {
					// The head hint: skip the executor at this block's next
					// entry unless its head is a lw that completed without
					// stalling here, which the executor would have run.
					b.headStops = x.op != xLw || dstall > 0
				}
			}
			cyc += uint64(n)
			issued += uint64(n)
			i = j
			c.pc = npc
			c.stall = fstall + dstall
			if c.halt {
				break dispatch
			}
			if c.stall > 0 {
				// Settle the stall span in bulk, clipped to the window.
				span := min(c.stall, end-cyc)
				c.AccrueStall(span)
				skipped += span
				cyc += span
				if c.stall > 0 {
					break dispatch
				}
			}
			if x.op >= xSw && !b.valid {
				// Self-modified underfoot by this very store (sw, sb and
				// swap are the last op codes, and only a store invalidates):
				// the commit above is complete, so resume at c.pc with a
				// fresh translation — the next instruction executes new
				// code, the same cycle the interpreter would run it.
				break
			}
			if i == len(ops) && c.pc == b.entry && stretch {
				// A back-edge the executor did not repeat because of the
				// head hint: run the block again without a new lookup. Its
				// plan is still Ready, as on any re-entry with fetches
				// pending.
				i, stops = 0, b.headStops
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

// stretchMax caps the ops one executor call may run, so the cycles left
// in a window convert to an int and a run's fetches to a uint32 count.
const stretchMax = 1 << 20

// execOps is the block executor. It runs b's ops in order from b.ops[i],
// the first at platform cycle cyc and each next one a cycle later, until it
// has run lim of them or the block transfers control; a taken back-edge to
// the block's own entry runs the block again while ops remain to run and
// the head hint does not say it would stop at once. It returns the index
// of the next op to run (len(b.ops) once the block's last op has run), how
// many ops it ran, the pc after the last of them and that op's data-stall
// cycles.
//
// It runs ALU ops, control transfers and lw ops that complete as dcache
// hits (for one issued at or after sharedBefore, only in a private range),
// and stops before halt and before any other memory op. It also stops
// after a lw whose hit has a latency, so a nonzero stall only ever comes
// from the last op it ran. It charges no cycle, fetch or issue: the caller
// settles those once for the whole run, and passes lim = 1 when each op's
// fetch must be charged on its own.
func (c *Core) execOps(b *block, i, lim int, cyc, sharedBefore uint64) (j, n int, npc uint32, dstall uint64) {
	ops := b.ops
	// Register fields are 5 bits wide; indexing with &31 tells the
	// compiler so, and it drops the bounds check of every register access.
	r := &c.regs
	for n < lim {
		x := &ops[i]
		switch x.op {
		case xNop:
		case xAdd:
			r[x.rd&31] = r[x.rs1&31] + r[x.rs2&31]
		case xSub:
			r[x.rd&31] = r[x.rs1&31] - r[x.rs2&31]
		case xAnd:
			r[x.rd&31] = r[x.rs1&31] & r[x.rs2&31]
		case xOr:
			r[x.rd&31] = r[x.rs1&31] | r[x.rs2&31]
		case xXor:
			r[x.rd&31] = r[x.rs1&31] ^ r[x.rs2&31]
		case xNor:
			r[x.rd&31] = ^(r[x.rs1&31] | r[x.rs2&31])
		case xSll:
			r[x.rd&31] = r[x.rs1&31] << (r[x.rs2&31] & 31)
		case xSrl:
			r[x.rd&31] = r[x.rs1&31] >> (r[x.rs2&31] & 31)
		case xSra:
			r[x.rd&31] = uint32(int32(r[x.rs1&31]) >> (r[x.rs2&31] & 31))
		case xSlt:
			r[x.rd&31] = b2u(int32(r[x.rs1&31]) < int32(r[x.rs2&31]))
		case xSltu:
			r[x.rd&31] = b2u(r[x.rs1&31] < r[x.rs2&31])
		case xMul:
			r[x.rd&31] = r[x.rs1&31] * r[x.rs2&31]
		case xDiv, xDivu, xRem, xRemu:
			// The edge cases (zero divisor, overflow) live in aluR.
			r[x.rd&31], _ = aluR(isa.Funct(x.op-xAdd), r[x.rs1&31], r[x.rs2&31])
		case xAddi:
			r[x.rd&31] = r[x.rs1&31] + uint32(x.imm)
		case xAndi:
			r[x.rd&31] = r[x.rs1&31] & uint32(x.imm)
		case xOri:
			r[x.rd&31] = r[x.rs1&31] | uint32(x.imm)
		case xXori:
			r[x.rd&31] = r[x.rs1&31] ^ uint32(x.imm)
		case xSlti:
			r[x.rd&31] = b2u(int32(r[x.rs1&31]) < x.imm)
		case xSltiu:
			r[x.rd&31] = b2u(r[x.rs1&31] < uint32(x.imm))
		case xSlli:
			r[x.rd&31] = r[x.rs1&31] << (uint32(x.imm) & 31)
		case xSrli:
			r[x.rd&31] = r[x.rs1&31] >> (uint32(x.imm) & 31)
		case xSrai:
			r[x.rd&31] = uint32(int32(r[x.rs1&31]) >> (uint32(x.imm) & 31))
		case xLui:
			r[x.rd&31] = uint32(x.imm) << 16
		case xBeq:
			npc = branch(c, x, r[x.rs1&31] == r[x.rs2&31])
		case xBne:
			npc = branch(c, x, r[x.rs1&31] != r[x.rs2&31])
		case xBlt:
			npc = branch(c, x, int32(r[x.rs1&31]) < int32(r[x.rs2&31]))
		case xBge:
			npc = branch(c, x, int32(r[x.rs1&31]) >= int32(r[x.rs2&31]))
		case xBltu:
			npc = branch(c, x, r[x.rs1&31] < r[x.rs2&31])
		case xBgeu:
			npc = branch(c, x, r[x.rs1&31] >= r[x.rs2&31])
		case xJal:
			r[isa.LinkReg] = x.pc + 4
			c.stats.Branches++
			c.stats.Taken++
			npc = x.next
		case xJalr:
			npc = (r[x.rs1&31] + uint32(x.imm)) &^ 3
			setReg(c, x.rd, x.pc+4)
			c.stats.Branches++
			c.stats.Taken++
		case xLw:
			// With privateOnly set a hit is also the privacy proof. The
			// effects it moves ahead of this op's fetch touch only the
			// dcache and counters the fetch adds to, so the order is
			// unobservable.
			v, stall, ok := c.ctrl.ReadWordHit(r[x.rs1&31]+uint32(x.imm), cyc+uint64(n) >= sharedBefore)
			if !ok {
				return i, n, x.pc, 0
			}
			c.stats.Loads++
			setReg(c, x.rd, v)
			if stall > 0 {
				return i + 1, n + 1, x.next, stall
			}
		case xHalt, xLb, xLbu, xSw, xSb, xSwap:
			return i, n, x.pc, 0
		default:
			panic("cpu: block op without an executor case")
		}
		n++
		if i++; i < len(ops) {
			continue
		}
		// The block's last op: only it can transfer control.
		if x.op < xBeq || x.op > xJalr {
			return i, n, x.next, 0
		}
		if npc != b.entry || n == lim || b.headStops {
			return i, n, npc, 0
		}
		i = 0
	}
	return i, n, ops[i].pc, 0
}

// emitOp fills one blockOp from a decoded instruction at address pc. The
// instruction is executable (ScanBlock guarantees it), so the undefined
// opcode/funct arms of the interpreter are unreachable here. An ALU op or
// lui that writes r0 has no effect at all and becomes xNop, so the ALU
// cases of the executor write their destination without an r0 test.
func emitOp(x *blockOp, in isa.Instr, pc uint32) {
	x.rd, x.rs1, x.rs2, x.imm = in.Rd, in.Rs1, in.Rs2, in.Imm
	x.pc = pc
	x.next = pc + 4
	switch {
	case in.Op == isa.OpRType:
		x.op = xAdd + uint8(in.Funct)
	case in.Op == isa.OpHalt:
		x.op = xHalt
	case in.Op == isa.OpLui:
		x.op = xLui
	case in.Op == isa.OpJal:
		x.next = uint32(int64(pc+4) + int64(in.Imm)*4)
		x.op = xJal
	case in.Op == isa.OpJalr:
		x.op = xJalr
	case in.Op.IsBranch():
		x.next = uint32(int64(pc+4) + int64(in.Imm)*4) // taken target
		x.op = xBeq + uint8(in.Op-isa.OpBeq)
	case in.Op == isa.OpSwap:
		x.op = xSwap
	case in.Op.IsMem():
		x.op = xLw + uint8(in.Op-isa.OpLw)
	default:
		x.op = xAddi + uint8(in.Op-isa.OpAddi)
	}
	if x.op <= xLui && x.rd == 0 {
		x.op = xNop
	}
}

// Block op codes, each with its case in the executor's switch (halt and
// the memory ops other than lw stop it, for StepBlocks's per-op path).
// Each group follows the order of its isa opcodes or functs, so emitOp
// maps a group with one add.
// The zero value is invalid, so an op emitOp never filled is caught. The
// ALU ops (those a write to r0 turns into xNop) come first and the memory
// ops last, so either group is told apart with one compare.
const (
	xInvalid uint8 = iota
	xNop
	// R-type, in isa.Funct order.
	xAdd
	xSub
	xAnd
	xOr
	xXor
	xNor
	xSll
	xSrl
	xSra
	xSlt
	xSltu
	xMul
	xDiv
	xDivu
	xRem
	xRemu
	// Immediate ALU ops, in isa.Opcode order from OpAddi.
	xAddi
	xAndi
	xOri
	xXori
	xSlti
	xSltiu
	xSlli
	xSrli
	xSrai
	xLui
	// Conditional branches, in isa.Opcode order from OpBeq.
	xBeq
	xBne
	xBlt
	xBge
	xBltu
	xBgeu
	xJal
	xJalr
	xHalt
	// Memory ops, in isa.Opcode order from OpLw (OpSwap, which follows
	// OpHalt there, is mapped on its own).
	xLw
	xLb
	xLbu
	xSw
	xSb
	xSwap
	numBlockOps
)

// setReg mirrors Core.SetReg without the method-call overhead on the
// dispatch hot path.
func setReg(c *Core, r uint8, v uint32) {
	if r != 0 {
		c.regs[r&31] = v
	}
}

// branch counts a conditional branch and returns its successor: the taken
// target x.next, or the fall-through.
func branch(c *Core, x *blockOp, take bool) uint32 {
	c.stats.Branches++
	if take {
		c.stats.Taken++
		return x.next
	}
	return x.pc + 4
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
