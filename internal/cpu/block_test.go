package cpu

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"thermemu/internal/asm"
	"thermemu/internal/isa"
	"thermemu/internal/mem"
)

// runWithBlocks drives the core the way the serial kernel does with block
// dispatch on: translated blocks where possible, the interpreter elsewhere.
func runWithBlocks(t *testing.T, c *Core, maxCycles uint64) {
	t.Helper()
	c.EnableBlocks()
	for now := uint64(0); now < maxCycles && !c.Halted(); {
		if n, _, _ := c.StepBlocks(now, maxCycles-now, WakeNever); n > 0 {
			now += n
			continue
		}
		c.Step(now)
		now++
	}
	if !c.Halted() {
		t.Fatalf("core did not halt within %d cycles (pc=0x%x)", maxCycles, c.PC())
	}
	if c.Fault() != nil {
		t.Fatalf("core faulted: %v", c.Fault())
	}
}

// checkAgainstInterpreter runs src once through the plain interpreter and
// once through block dispatch on buildCore's uncached core and requires
// identical architectural and statistical outcomes.
func checkAgainstInterpreter(t *testing.T, src string, maxCycles uint64) *Core {
	t.Helper()
	return checkBuiltAgainstInterpreter(t, buildCore, src, maxCycles)
}

// checkBuiltAgainstInterpreter is checkAgainstInterpreter on cores from
// build.
func checkBuiltAgainstInterpreter(t *testing.T, build func(*testing.T, string) (*Core, *mem.Memory), src string, maxCycles uint64) *Core {
	t.Helper()
	ref, refMem := build(t, src)
	run(t, ref, maxCycles)
	blk, blkMem := build(t, src)
	runWithBlocks(t, blk, maxCycles)
	compareCores(t, ref, refMem, blk, blkMem)
	return blk
}

// compareCores requires blk to match the interpreter-driven ref: registers,
// pc, core counters, the memory controller's, both caches' and the
// memory's counters, and the first 64 KiB of memory.
func compareCores(t *testing.T, ref *Core, refMem *mem.Memory, blk *Core, blkMem *mem.Memory) {
	t.Helper()
	for r := uint8(0); r < 32; r++ {
		if ref.Reg(r) != blk.Reg(r) {
			t.Errorf("r%d: interpreter %#x, blocks %#x", r, ref.Reg(r), blk.Reg(r))
		}
	}
	if ref.PC() != blk.PC() {
		t.Errorf("pc: interpreter %#x, blocks %#x", ref.PC(), blk.PC())
	}
	if ref.StallRemaining() != blk.StallRemaining() || ref.State() != blk.State() {
		t.Errorf("stall/state: interpreter %d/%v, blocks %d/%v", ref.StallRemaining(), ref.State(), blk.StallRemaining(), blk.State())
	}
	if ref.Stats() != blk.Stats() {
		t.Errorf("stats diverge:\n interpreter %+v\n blocks      %+v", ref.Stats(), blk.Stats())
	}
	rc, bc := ref.Controller(), blk.Controller()
	if rc.Stats() != bc.Stats() {
		t.Errorf("controller stats diverge:\n interpreter %+v\n blocks      %+v", rc.Stats(), bc.Stats())
	}
	for _, c := range []struct {
		name     string
		ref, blk *mem.Cache
	}{{"icache", rc.ICache(), bc.ICache()}, {"dcache", rc.DCache(), bc.DCache()}} {
		if c.ref != nil && c.ref.Stats() != c.blk.Stats() {
			t.Errorf("%s stats diverge:\n interpreter %+v\n blocks      %+v", c.name, c.ref.Stats(), c.blk.Stats())
		}
	}
	if refMem.Stats() != blkMem.Stats() {
		t.Errorf("memory stats diverge: interpreter %+v, blocks %+v", refMem.Stats(), blkMem.Stats())
	}
	for a := uint32(0); a < 64*1024; a += 4 {
		if rw, bw := refMem.PeekWord(a), blkMem.PeekWord(a); rw != bw {
			t.Fatalf("memory at %#x: interpreter %#x, blocks %#x", a, rw, bw)
		}
	}
}

// buildCachedCore is buildCore behind a direct-mapped icache and a 2-way
// dcache, over a memory with latency 3, so misses stall and the dcache
// hit path of block loads is taken. Both caches hit with zero latency.
func buildCachedCore(t *testing.T, src string) (*Core, *mem.Memory) {
	t.Helper()
	return buildCachedCoreHit(t, src, 0)
}

// buildCachedCoreHit is buildCachedCore with a dcache hit latency of hit
// cycles (the icache still hits with zero latency, so block fetches batch
// and the executor meets the latency on its loads).
func buildCachedCoreHit(t *testing.T, src string, hit uint64) (*Core, *mem.Memory) {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c, priv := newCachedCore(t, 0, hit)
	load(c, priv, im)
	return c, priv
}

// newCachedCore is buildCachedCore's core before any program is loaded,
// with the given icache and dcache hit latencies. The shared range is
// cacheable, so a private miss may have to write back a shared line.
func newCachedCore(t *testing.T, icHit, dcHit uint64) (*Core, *mem.Memory) {
	t.Helper()
	ctl := mem.NewController("ctl0", 0)
	priv := mem.NewMemory("priv", 64*1024, 3) // latency: real stall spans
	if err := ctl.AddRange(mem.Range{Name: "priv", Base: 0, Target: priv, Kind: mem.KindPrivate, Cacheable: true}); err != nil {
		t.Fatal(err)
	}
	addSharedRange(t, ctl, true)
	ic := mem.NewCache(mem.CacheConfig{Name: "ic", SizeBytes: 1024, LineBytes: 16, Assoc: 1, HitLatency: icHit})
	dc := mem.NewCache(mem.CacheConfig{Name: "dc", SizeBytes: 512, LineBytes: 16, Assoc: 2, HitLatency: dcHit})
	ctl.AttachCaches(ic, dc)
	return New(0, Microblaze, ctl), priv
}

// allOpsSource generates a program that executes every R32 opcode and
// funct, each ALU op also with r0 as its destination: every R-type funct on
// four operand pairs (covering the div/rem zero-divisor and overflow
// cases), every immediate op on three sources and immediates, lui, all six
// branches both taken and not taken, jal, jalr with and without a link
// register, and the full memory op set including byte accesses, loads into
// r0 and atomic swap. Every ALU result is stored, so a wrong value shows in
// memory even when a later op overwrites its register.
func allOpsSource() string {
	var b strings.Builder
	b.WriteString(`
		li   r9, 0x4000   ; result area
		addi r1, r0, 7
		addi r2, r0, -3
		lui  r3, 0x8000   ; INT_MIN
		addi r4, r0, -1
		addi r5, r0, 0
`)
	slot := 0
	emit := func(format string, args ...any) {
		fmt.Fprintf(&b, "\t"+format+"\n", args...)
	}
	store := func(format string, args ...any) {
		emit(format, args...)
		emit("sw r10, %d(r9)", 4*slot)
		slot++
	}
	for fn := isa.Funct(0); fn.Valid(); fn++ {
		for _, p := range [][2]string{{"r1", "r2"}, {"r2", "r1"}, {"r1", "r5"}, {"r3", "r4"}} {
			store("%s r10, %s, %s", fn, p[0], p[1])
		}
		emit("%s r0, r1, r2", fn)
	}
	for op := isa.OpAddi; op <= isa.OpSrai; op++ {
		imms := []int{5, -5, 0x7fff}
		if op.ZeroExtImm() {
			imms = []int{5, 33, 0xffff}
		}
		for _, src := range []string{"r1", "r2", "r3"} {
			for _, imm := range imms {
				store("%s r10, %s, %d", op, src, imm)
			}
		}
		emit("%s r0, r1, 5", op)
	}
	store("lui r10, 0x1234")
	emit("lui r0, 0x1234")
	label := 0
	for op := isa.OpBeq; op <= isa.OpBgeu; op++ {
		for _, p := range [][2]string{{"r1", "r2"}, {"r2", "r1"}, {"r1", "r1"}} {
			emit("%s %s, %s, b%d", op, p[0], p[1], label)
			emit("addi r11, r11, 1") // counts the not-taken branches
			fmt.Fprintf(&b, "b%d:\n", label)
			label++
		}
	}
	b.WriteString(`
		jal  link         ; links r31
		jal  nolink
		sw   r2, 0x400(r9)
		lw   r12, 0x400(r9)
		lw   r0, 0x400(r9)
		sb   r2, 0x405(r9)
		sb   r0, 0x406(r9)
		lb   r13, 0x405(r9)
		lbu  r14, 0x405(r9)
		lb   r0, 0x405(r9)
		lbu  r0, 0x405(r9)
		addi r15, r0, 42
		swap r15, 0x408(r9)   ; old value (0) into r15
		lw   r16, 0x408(r9)   ; 42
		sw   r1, 0x40c(r9)
		swap r0, 0x40c(r9)    ; stores r0, drops the old value
		lw   r17, 0x40c(r9)   ; 0
		halt
	link:
		jalr r18, r31, 0      ; return, linking r18
	nolink:
		jalr r0, r31, 0       ; return
`)
	return b.String()
}

// TestBlocksAllOps pushes every R32 opcode and funct, writes to r0
// included, through block dispatch on an uncached core and on a cached one
// with memory latency, and requires register, counter and memory identity
// with the interpreter. It first checks that the program really covers
// every executable opcode and funct.
func TestBlocksAllOps(t *testing.T) {
	src := allOpsSource()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[isa.Opcode]bool{}
	fns := map[isa.Funct]bool{}
	r0 := map[string]bool{} // ops with r0 as destination
	for _, s := range im.Sections {
		for i := 0; i+4 <= len(s.Data); i += 4 {
			in := isa.Decode(binary.LittleEndian.Uint32(s.Data[i:]))
			ops[in.Op] = true
			name := in.Op.String()
			if in.Op == isa.OpRType {
				fns[in.Funct] = true
				name = in.Funct.String()
			}
			if in.Rd == 0 && !in.Op.IsBranch() && in.Op != isa.OpJal && in.Op != isa.OpHalt {
				r0[name] = true
			}
		}
	}
	for op := isa.Opcode(0); op.Valid(); op++ {
		if !ops[op] {
			t.Errorf("program never executes %s", op)
		}
	}
	for fn := isa.Funct(0); fn.Valid(); fn++ {
		if !fns[fn] || !r0[fn.String()] {
			t.Errorf("program never executes %s, or never with destination r0", fn)
		}
	}
	for op := isa.OpAddi; op <= isa.OpLui; op++ {
		if !r0[op.String()] {
			t.Errorf("program never executes %s with destination r0", op)
		}
	}

	for _, tc := range []struct {
		name  string
		build func(*testing.T, string) (*Core, *mem.Memory)
	}{{"uncached", buildCore}, {"cached", buildCachedCore}} {
		t.Run(tc.name, func(t *testing.T) {
			blk := checkBuiltAgainstInterpreter(t, tc.build, src, 100_000)
			if got := blk.Reg(16); got != 42 {
				t.Errorf("swap/lw chain: r16 = %d, want 42", got)
			}
			if got := blk.Reg(11); got != 9 {
				t.Errorf("not-taken branches: r11 = %d, want 9", got)
			}
			if !blk.BlocksEnabled() {
				t.Error("BlocksEnabled() = false after EnableBlocks")
			}
		})
	}
}

// TestEmitOpCoversEveryOp checks the translation table behind the
// executor switch: every executable opcode and funct gets a valid block
// op of its own, an ALU op or lui writing r0 (and nothing else) becomes
// xNop, and every block op is emitted for some instruction, so no switch
// case is dead. TestBlocksAllOps then runs each of them through the switch,
// whose default case panics.
func TestEmitOpCoversEveryOp(t *testing.T) {
	var ins []isa.Instr
	for op := isa.Opcode(0); op.Valid(); op++ {
		if op == isa.OpRType {
			for fn := isa.Funct(0); fn.Valid(); fn++ {
				ins = append(ins, isa.Instr{Op: op, Funct: fn})
			}
			continue
		}
		ins = append(ins, isa.Instr{Op: op})
	}
	owner := map[uint8]isa.Instr{}
	for _, in := range ins {
		for _, rd := range []uint8{0, 7} {
			in.Rd = rd
			var x blockOp
			emitOp(&x, in, 0x100)
			name := in.Op.String()
			if in.Op == isa.OpRType {
				name = in.Funct.String()
			}
			if x.op == xInvalid || x.op >= numBlockOps {
				t.Errorf("%s rd=r%d: block op %d is not a dispatch case", name, rd, x.op)
				continue
			}
			alu := in.Op == isa.OpRType || in.Op >= isa.OpAddi && in.Op <= isa.OpLui
			if (x.op == xNop) != (alu && rd == 0) {
				t.Errorf("%s rd=r%d: block op %d, xNop only for an ALU op writing r0", name, rd, x.op)
			}
			if x.op == xNop {
				continue
			}
			if prev, ok := owner[x.op]; ok && prev != (isa.Instr{Op: in.Op, Funct: in.Funct}) {
				t.Errorf("%s and %v share block op %d", name, prev, x.op)
			}
			owner[x.op] = isa.Instr{Op: in.Op, Funct: in.Funct}
		}
	}
	for op := xNop + 1; op < numBlockOps; op++ {
		if _, ok := owner[op]; !ok {
			t.Errorf("block op %d is emitted for no instruction", op)
		}
	}
	if got := unsafe.Sizeof(blockOp{}); got > 16 {
		t.Errorf("blockOp is %d bytes, want at most 16", got)
	}
}

// TestBlocksSelfModifyingCode is the fetch-coherence regression test: a
// store into an already-translated block must invalidate it, so the next
// execution of the patched address runs the new instruction — exactly when
// the interpreter would. Before the controller code-write hook existed,
// stores never reached any fetch-side state and the stale block would have
// executed the old code.
func TestBlocksSelfModifyingCode(t *testing.T) {
	// The patch site sits in a loop body: iteration 1 executes the original
	// instruction (+1) and then overwrites it with the donor word (+100);
	// iteration 2 must execute the patched one. r5 = 1 + 100 = 101.
	src := `
		li   r9, patch
		li   r10, donor
		lw   r8, 0(r10)
		addi r2, r0, 2
	loop:
	patch:
		addi r5, r5, 1
		sw   r8, 0(r9)
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	donor:
		addi r5, r5, 100
	`
	blk := checkAgainstInterpreter(t, src, 10_000)
	if got := blk.Reg(5); got != 101 {
		t.Errorf("r5 = %d, want 101 (stale block executed pre-store code)", got)
	}
	if st := blk.BlockStats(); st.Invalidated == 0 {
		t.Errorf("no block was invalidated by the code store: %+v", st)
	}
}

// TestBlocksPatchSameBlock patches the instruction *immediately after* the
// store, inside the very block being executed: the invalidation must take
// effect mid-block, before the patched instruction issues.
func TestBlocksPatchSameBlock(t *testing.T) {
	src := `
		li   r9, target
		li   r10, donor
		lw   r8, 0(r10)
		sw   r8, 0(r9)
	target:
		addi r5, r5, 1
		halt
	donor:
		addi r5, r5, 100
	`
	blk := checkAgainstInterpreter(t, src, 1_000)
	if got := blk.Reg(5); got != 100 {
		t.Errorf("r5 = %d, want 100 (block ran the pre-patch instruction)", got)
	}
}

// TestBlocksProgramReload pins the Reset flush: loaders write the new image
// below the code-write hook (Memory.WriteBytes), so Reset itself must
// discard every translated block or the core would keep executing the old
// program.
func TestBlocksProgramReload(t *testing.T) {
	progA := `
		addi r1, r0, 11
		halt
	`
	progB := `
		addi r1, r0, 22
		halt
	`
	core, priv := buildCore(t, progA)
	core.EnableBlocks()
	runWithBlocks(t, core, 1_000)
	if got := core.Reg(1); got != 11 {
		t.Fatalf("program A: r1 = %d, want 11", got)
	}

	imB, err := asm.Assemble(progB)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range imB.Sections {
		priv.WriteBytes(s.Addr, s.Data) // loader path: no code-write hook
	}
	core.Reset(imB.Entry)
	runWithBlocks(t, core, 1_000)
	if got := core.Reg(1); got != 22 {
		t.Errorf("after reload: r1 = %d, want 22 (stale block survived Reset)", got)
	}
	if st := core.BlockStats(); st.Flushes == 0 {
		t.Errorf("Reset did not flush the block cache: %+v", st)
	}
}

// TestBlocksRestoreStateCold pins the checkpoint contract at the core level:
// RestoreState must discard translated blocks, because the restored memory
// image may differ from the one the blocks were translated from.
func TestBlocksRestoreStateCold(t *testing.T) {
	src := `
		addi r1, r0, 5
		halt
	`
	core, priv := buildCore(t, src)
	core.EnableBlocks()
	saved := core.SaveState()
	runWithBlocks(t, core, 1_000)
	flushesBefore := core.BlockStats().Flushes

	// Restore over a *different* memory image, as a checkpoint apply does.
	imB, err := asm.Assemble(`
		addi r1, r0, 6
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range imB.Sections {
		priv.WriteBytes(s.Addr, s.Data)
	}
	core.RestoreState(saved)
	if core.BlockStats().Flushes <= flushesBefore {
		t.Fatalf("RestoreState did not flush the block cache: %+v", core.BlockStats())
	}
	runWithBlocks(t, core, 1_000)
	if got := core.Reg(1); got != 6 {
		t.Errorf("after restore: r1 = %d, want 6 (block translated pre-restore survived)", got)
	}
}

// TestBlocksFaultSemantics checks that a memory fault raised from inside a
// block leaves the same pc, stats and fault as the interpreter.
func TestBlocksFaultSemantics(t *testing.T) {
	src := `
		addi r1, r0, 3
		lui  r2, 0x7fff
		lw   r3, 0(r2)     ; unmapped: faults here
		addi r4, r0, 9     ; never executes
		halt
	`
	ref, _ := buildCore(t, src)
	for now := uint64(0); now < 100 && !ref.Halted() && ref.Fault() == nil; now++ {
		ref.Step(now)
	}
	blk, _ := buildCore(t, src)
	blk.EnableBlocks()
	for now := uint64(0); now < 100 && !blk.Halted() && blk.Fault() == nil; {
		if n, _, _ := blk.StepBlocks(now, 100-now, WakeNever); n > 0 {
			now += n
			continue
		}
		blk.Step(now)
		now++
	}
	if ref.Fault() == nil || blk.Fault() == nil {
		t.Fatalf("expected faults; interpreter %v, blocks %v", ref.Fault(), blk.Fault())
	}
	if ref.Fault().Error() != blk.Fault().Error() {
		t.Errorf("fault: interpreter %q, blocks %q", ref.Fault(), blk.Fault())
	}
	if ref.PC() != blk.PC() {
		t.Errorf("pc at fault: interpreter %#x, blocks %#x", ref.PC(), blk.PC())
	}
	if ref.Reg(4) != 0 || blk.Reg(4) != 0 {
		t.Errorf("instruction after the fault executed: ref r4=%d blk r4=%d", ref.Reg(4), blk.Reg(4))
	}
	if ref.Stats() != blk.Stats() {
		t.Errorf("stats diverge at fault:\n interpreter %+v\n blocks      %+v", ref.Stats(), blk.Stats())
	}
}

// TestBlocksStatsAgainstInterpreter covers a mixed compute/branch/memory
// loop with a non-trivial dcache footprint under a memory with latency (the
// buildCore memory is latency 0, so add one with real stalls).
func TestBlocksMixedLoopWithLatency(t *testing.T) {
	src := `
		li   r4, 0x400
		addi r2, r0, 64
	loop:
		sw   r2, 0(r4)
		lw   r5, 0(r4)
		add  r6, r6, r5
		addi r4, r4, 4
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`
	checkBuiltAgainstInterpreter(t, buildCachedCore, src, 100_000)
}

// TestBlocksCapacityFlushWithPendingFetch forces a capacity flush of the
// block cache inside one StepBlocks call while batched fetches of the hot
// loop block are still pending: the exit block's translation flushes the
// cache, and the pending fetches settle against the plan of the block the
// flush just discarded. That plan must survive the flush (storage chunks
// are abandoned, never rewound) for the run to stay identical to Step.
func TestBlocksCapacityFlushWithPendingFetch(t *testing.T) {
	// The loop block spans two icache lines and the exit block starts in
	// the second and runs into a third, cold one.
	src := `
	loop:
		addi r3, r3, 1
		addi r3, r3, 1
		addi r3, r3, 1
		addi r3, r3, 1
		addi r1, r1, -1
		bne  r1, r0, loop
		addi r2, r0, 1
		addi r2, r2, 1
		addi r2, r2, 1
		addi r2, r2, 1
		halt
	`
	build := func() (*Core, *mem.Cache) {
		c, _ := buildCachedCore(t, src)
		c.SetReg(1, 6)
		return c, c.Controller().ICache()
	}

	blk, blkIC := build()
	blk.EnableBlocks()
	// Fill the cache to one below capacity with dead entries away from the
	// code, so translating the loop block fills it and translating the
	// exit block (while the loop's fetches are pending) flushes it.
	for i := 0; i < blockCacheMax-1; i++ {
		blk.blocks.blocks[0x8000+4*uint32(i)] = &block{}
	}
	n, _, _ := blk.StepBlocks(0, 10_000, WakeNever)
	if !blk.Halted() {
		t.Fatalf("one StepBlocks call did not run to halt (%d cycles, pc %#x)", n, blk.PC())
	}
	if st := blk.BlockStats(); st.Flushes != 1 || st.Translated != 2 {
		t.Fatalf("want one capacity flush between two translations, got %+v", st)
	}

	ref, refIC := build()
	run(t, ref, n)
	if ref.PC() != blk.PC() {
		t.Errorf("pc: interpreter %#x, blocks %#x", ref.PC(), blk.PC())
	}
	if ref.Stats() != blk.Stats() {
		t.Errorf("stats diverge:\n interpreter %+v\n blocks      %+v", ref.Stats(), blk.Stats())
	}
	if refIC.Stats() != blkIC.Stats() {
		t.Errorf("icache diverges:\n interpreter %+v\n blocks      %+v", refIC.Stats(), blkIC.Stats())
	}
	for _, r := range []uint8{2, 3} {
		if ref.Reg(r) != blk.Reg(r) {
			t.Errorf("r%d: interpreter %d, blocks %d", r, ref.Reg(r), blk.Reg(r))
		}
	}
}

// clipSource is the program of TestBlocksClipAtEveryOp. Its loop block
// mixes ALU ops with a leading load, a dcache-hit load, a shared load, a
// load that misses on every pass, a store and a closing branch. The
// leading load alternates between two lines of one dcache set, so on the
// cached cores it misses on the first two passes and hits on the last two.
const clipSource = `
	li   r9, 0x4000        ; leading-load base, toggled with 0x4100
	li   r10, 0x10030      ; shared word
	li   r11, 0x6080       ; missing-load cursor, a new line every pass
	addi r12, r0, 0x100
	addi r5, r0, 4         ; passes
	lw   r3, 0x44(r9)      ; warm the hit line
	beq  r0, r0, loop
loop:
	lw   r1, 0(r9)
	addi r2, r1, 3
	lw   r3, 0x44(r9)
	add  r4, r2, r3
	lw   r6, 0(r10)
	xor  r9, r9, r12
	lw   r7, 0(r11)
	addi r11, r11, 0x200
	sw   r4, 8(r9)
	sub  r8, r4, r7
	addi r5, r5, -1
	bne  r5, r0, loop
	halt
`

// TestBlocksClipAtEveryOp enters the loop block of clipSource with
// StepBlocks at every window length from 1 to the block length and at
// every sharedBefore offset inside the block, on an uncached core, a
// cached one with zero-latency hits and a cached one whose dcache hits
// take 3 cycles. After the clipped call (or the Step fallback when it runs
// nothing) and again after running on to the halt, the core must match
// one driven by Step alone. Every stop of the executor is on that path:
// the window clip, a missing or non-private load, the store, the
// per-instruction fetch regime (uncached) and a hit latency. On the
// zero-latency core the block's head hint must end clear, because the
// leading load hit on the last pass.
func TestBlocksClipAtEveryOp(t *testing.T) {
	im, err := asm.Assemble(clipSource)
	if err != nil {
		t.Fatal(err)
	}
	entry := im.Symbols["loop"]
	const blockLen = 12
	for _, tc := range []struct {
		name  string
		build func(*testing.T, string) (*Core, *mem.Memory)
	}{
		{"uncached", buildCore},
		{"cached", buildCachedCore},
		{"cached-hit3", func(t *testing.T, src string) (*Core, *mem.Memory) {
			return buildCachedCoreHit(t, src, 3)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// start builds a core and steps it to its issue of the given
			// pass of the loop, returning the cycle it issues on.
			start := func(pass int) (*Core, *mem.Memory, uint64) {
				c, m := tc.build(t, clipSource)
				now := uint64(0)
				for ; ; now++ {
					if c.PC() == entry && c.StallRemaining() == 0 {
						if pass--; pass == 0 {
							return c, m, now
						}
					}
					if now > 1000 || c.Halted() {
						t.Fatalf("core never reached the loop (pc %#x)", c.PC())
					}
					c.Step(now)
				}
			}
			// Pass 1 runs the block cold; from pass 2 its icache lines are
			// resident, so its fetches batch and the executor runs
			// stretches of ops.
			for _, pass := range []int{1, 2} {
				for max := uint64(1); max <= blockLen; max++ {
					for sb := uint64(0); sb <= blockLen; sb++ {
						ref, refMem, now := start(pass)
						blk, blkMem, _ := start(pass)
						blk.EnableBlocks()
						n, _, _ := blk.StepBlocks(now, max, now+sb)
						if n == 0 {
							blk.Step(now)
							n = 1
						}
						if n > max {
							t.Fatalf("pass %d, max %d, sharedBefore +%d: StepBlocks ran %d cycles", pass, max, sb, n)
						}
						for k := uint64(0); k < n; k++ {
							ref.Step(now + k)
						}
						compareCores(t, ref, refMem, blk, blkMem)
						for at := now + n; !ref.Halted(); at++ {
							ref.Step(at)
						}
						for at := now + n; !blk.Halted(); {
							if k, _, _ := blk.StepBlocks(at, 1000, at+sb); k > 0 {
								at += k
								continue
							}
							blk.Step(at)
							at++
						}
						compareCores(t, ref, refMem, blk, blkMem)
						if t.Failed() {
							t.Fatalf("diverged at pass %d, max %d, sharedBefore +%d", pass, max, sb)
						}
						b := blk.blocks.lookup(entry)
						if b == nil || len(b.ops) != blockLen {
							t.Fatalf("loop block missing or not %d ops long", blockLen)
						}
						if tc.name == "cached" && b.headStops {
							t.Fatalf("pass %d, max %d, sharedBefore +%d: head hint still set after a hitting leading load", pass, max, sb)
						}
					}
				}
			}
		})
	}
}
