package cpu

import (
	"testing"

	"thermemu/internal/asm"
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
// once through block dispatch and requires identical architectural and
// statistical outcomes.
func checkAgainstInterpreter(t *testing.T, src string, maxCycles uint64) *Core {
	t.Helper()
	ref, _ := buildCore(t, src)
	run(t, ref, maxCycles)
	blk, _ := buildCore(t, src)
	runWithBlocks(t, blk, maxCycles)
	for r := uint8(1); r < 32; r++ {
		if ref.Reg(r) != blk.Reg(r) {
			t.Errorf("r%d: interpreter %#x, blocks %#x", r, ref.Reg(r), blk.Reg(r))
		}
	}
	if ref.PC() != blk.PC() {
		t.Errorf("pc: interpreter %#x, blocks %#x", ref.PC(), blk.PC())
	}
	if ref.Stats() != blk.Stats() {
		t.Errorf("stats diverge:\n interpreter %+v\n blocks      %+v", ref.Stats(), blk.Stats())
	}
	return blk
}

// TestBlocksAllOps pushes every R32 opcode and funct through block dispatch
// and requires register/stat identity with the interpreter: ALU R-type
// (including the div/rem edge-case family), every immediate op, lui,
// jal/jalr, all six branches both taken and not taken, and the full memory
// op set including byte accesses and atomic swap.
func TestBlocksAllOps(t *testing.T) {
	src := `
		addi r1, r0, 7
		addi r2, r0, -3
		add  r3, r1, r2
		sub  r4, r1, r2
		and  r5, r1, r2
		or   r6, r1, r2
		xor  r7, r1, r2
		nor  r8, r1, r2
		addi r9, r0, 4
		sll  r10, r1, r9
		srl  r11, r2, r9
		sra  r12, r2, r9
		slt  r13, r2, r1
		sltu r14, r2, r1
		mul  r15, r1, r2
		div  r16, r1, r2
		divu r17, r1, r9
		rem  r18, r1, r2
		remu r19, r1, r9
		div  r20, r1, r0      ; divide by zero edge case
		rem  r21, r1, r0
		andi r22, r1, 5
		ori  r23, r1, 8
		xori r24, r1, 3
		slti r25, r2, 0
		sltiu r26, r1, 100
		slli r27, r1, 2
		srli r28, r2, 2
		srai r29, r2, 2
		lui  r30, 0x1234
		jal  sub1             ; taken jump, links r31
	back:
		beq  r1, r1, t1       ; taken
	t1:
		bne  r1, r1, bad      ; not taken
		blt  r2, r1, t2       ; taken
	t2:
		bge  r1, r2, t3       ; taken
	t3:
		bltu r2, r1, bad      ; not taken (unsigned: -3 is huge)
		bgeu r2, r1, t4       ; taken
	t4:
		li   r9, 0x800
		sw   r3, 0(r9)
		lw   r10, 0(r9)
		sb   r1, 5(r9)
		lb   r11, 5(r9)
		lbu  r12, 5(r9)
		addi r13, r0, 42
		swap r13, 8(r9)       ; old value (0) into r13
		lw   r14, 8(r9)       ; 42
		halt
	bad:
		addi r28, r0, 999
		halt
	sub1:
		addi r2, r2, 0        ; keep r2
		jalr r0, r31, 0       ; return
	`
	blk := checkAgainstInterpreter(t, src, 10_000)
	if got := blk.Reg(14); got != 42 {
		t.Errorf("swap/lw chain: r14 = %d, want 42", got)
	}
	if !blk.BlocksEnabled() {
		t.Error("BlocksEnabled() = false after EnableBlocks")
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
	build := func() *Core {
		im, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		ctl := mem.NewController("ctl0", 0)
		priv := mem.NewMemory("priv", 64*1024, 3) // latency: real stall spans
		if err := ctl.AddRange(mem.Range{Name: "priv", Base: 0, Target: priv, Kind: mem.KindPrivate, Cacheable: true}); err != nil {
			t.Fatal(err)
		}
		ic := mem.NewCache(mem.CacheConfig{Name: "ic", SizeBytes: 1024, LineBytes: 16, Assoc: 1, HitLatency: 0})
		dc := mem.NewCache(mem.CacheConfig{Name: "dc", SizeBytes: 512, LineBytes: 16, Assoc: 2, HitLatency: 0})
		ctl.AttachCaches(ic, dc)
		for _, s := range im.Sections {
			priv.WriteBytes(s.Addr, s.Data)
		}
		c := New(0, Microblaze, ctl)
		c.Reset(im.Entry)
		return c
	}
	ref := build()
	run(t, ref, 100_000)
	blk := build()
	runWithBlocks(t, blk, 100_000)
	if ref.Stats() != blk.Stats() {
		t.Errorf("stats diverge:\n interpreter %+v\n blocks      %+v", ref.Stats(), blk.Stats())
	}
	if ref.Reg(6) != blk.Reg(6) {
		t.Errorf("r6: interpreter %d, blocks %d", ref.Reg(6), blk.Reg(6))
	}
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
		im, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		ctl := mem.NewController("ctl0", 0)
		priv := mem.NewMemory("priv", 64*1024, 3)
		if err := ctl.AddRange(mem.Range{Name: "priv", Base: 0, Target: priv, Kind: mem.KindPrivate, Cacheable: true}); err != nil {
			t.Fatal(err)
		}
		ic := mem.NewCache(mem.CacheConfig{Name: "ic", SizeBytes: 1024, LineBytes: 16, Assoc: 1, HitLatency: 0})
		ctl.AttachCaches(ic, mem.NewCache(mem.CacheConfig{Name: "dc", SizeBytes: 512, LineBytes: 16, Assoc: 2, HitLatency: 0}))
		for _, s := range im.Sections {
			priv.WriteBytes(s.Addr, s.Data)
		}
		c := New(0, Microblaze, ctl)
		c.Reset(im.Entry)
		c.SetReg(1, 6)
		return c, ic
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
