package cpu

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"thermemu/internal/asm"
	"thermemu/internal/isa"
	"thermemu/internal/mem"
)

// buildCore assembles src into a fresh single-core platform with a 64 KiB
// private memory (latency 0 so timing tests are exact) and runs it.
func buildCore(t *testing.T, src string) (*Core, *mem.Memory) {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	core, priv := newUncachedCore(t)
	load(core, priv, im)
	return core, priv
}

// newUncachedCore is buildCore's core before any program is loaded: 64 KiB
// of private memory with latency 0 at address 0, and no caches.
func newUncachedCore(t *testing.T) (*Core, *mem.Memory) {
	t.Helper()
	ctl := mem.NewController("ctl0", 0)
	priv := mem.NewMemory("priv", 64*1024, 0)
	if err := ctl.AddRange(mem.Range{Name: "priv", Base: 0, Target: priv, Kind: mem.KindPrivate}); err != nil {
		t.Fatal(err)
	}
	addSharedRange(t, ctl, false)
	return New(0, Microblaze, ctl), priv
}

// load writes the image into priv and resets the core to its entry.
func load(c *Core, priv *mem.Memory, im *asm.Image) {
	for _, s := range im.Sections {
		priv.WriteBytes(s.Addr, s.Data)
	}
	c.Reset(im.Entry)
}

// sharedBase is where the test cores map a small shared memory, so block
// tests can issue loads the sharedBefore bound stops.
const sharedBase = 0x10000

// addSharedRange maps 4 KiB of shared memory with latency 2 at sharedBase.
func addSharedRange(t *testing.T, ctl *mem.Controller, cacheable bool) {
	t.Helper()
	shared := mem.NewMemory("shared", 4096, 2)
	if err := ctl.AddRange(mem.Range{Name: "shared", Base: sharedBase, Target: shared, Kind: mem.KindShared, Cacheable: cacheable}); err != nil {
		t.Fatal(err)
	}
}

// run steps the core until it halts or maxCycles elapse.
func run(t *testing.T, c *Core, maxCycles uint64) {
	t.Helper()
	for now := uint64(0); now < maxCycles && !c.Halted(); now++ {
		c.Step(now)
	}
	if !c.Halted() {
		t.Fatalf("core did not halt within %d cycles (pc=0x%x)", maxCycles, c.PC())
	}
	if c.Fault() != nil {
		t.Fatalf("core faulted: %v", c.Fault())
	}
}

func TestArithmetic(t *testing.T) {
	core, _ := buildCore(t, `
		addi r1, r0, 7
		addi r2, r0, -3
		add  r3, r1, r2     ; 4
		sub  r4, r1, r2     ; 10
		mul  r5, r1, r2     ; -21
		div  r6, r4, r3     ; 2
		rem  r7, r4, r3     ; 2
		halt
	`)
	run(t, core, 100)
	minus21 := int32(-21)
	want := map[uint8]uint32{3: 4, 4: 10, 5: uint32(minus21), 6: 2, 7: 2}
	for r, v := range want {
		if got := core.Reg(r); got != v {
			t.Errorf("r%d = %d (%#x), want %d", r, int32(got), got, int32(v))
		}
	}
}

func TestLogicAndShifts(t *testing.T) {
	core, _ := buildCore(t, `
		li   r1, 0xF0F0F0F0
		li   r2, 0x0FF00FF0
		and  r3, r1, r2
		or   r4, r1, r2
		xor  r5, r1, r2
		nor  r6, r1, r2
		addi r7, r0, 4
		sll  r8, r1, r7
		srl  r9, r1, r7
		sra  r10, r1, r7
		slli r11, r1, 1
		srai r12, r1, 28
		halt
	`)
	run(t, core, 100)
	a, b := uint32(0xF0F0F0F0), uint32(0x0FF00FF0)
	want := map[uint8]uint32{
		3: a & b, 4: a | b, 5: a ^ b, 6: ^(a | b),
		8: a << 4, 9: a >> 4, 10: uint32(int32(a) >> 4),
		11: a << 1, 12: uint32(int32(a) >> 28),
	}
	for r, v := range want {
		if got := core.Reg(r); got != v {
			t.Errorf("r%d = %#x, want %#x", r, got, v)
		}
	}
}

func TestComparisons(t *testing.T) {
	core, _ := buildCore(t, `
		addi r1, r0, -1
		addi r2, r0, 1
		slt   r3, r1, r2    ; 1 (signed)
		sltu  r4, r1, r2    ; 0 (unsigned: 0xFFFFFFFF > 1)
		slti  r5, r1, 0     ; 1
		sltiu r6, r2, 2     ; 1
		halt
	`)
	run(t, core, 100)
	for r, v := range map[uint8]uint32{3: 1, 4: 0, 5: 1, 6: 1} {
		if got := core.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestDivRemEdgeCases(t *testing.T) {
	core, _ := buildCore(t, `
		addi r1, r0, 5
		add  r2, r0, r0
		div  r3, r1, r2     ; /0 -> -1
		rem  r4, r1, r2     ; %0 -> dividend
		divu r5, r1, r2     ; -1
		remu r6, r1, r2     ; 5
		li   r7, 0x80000000
		addi r8, r0, -1
		div  r9, r7, r8     ; overflow -> dividend
		rem  r10, r7, r8    ; overflow -> 0
		halt
	`)
	run(t, core, 100)
	want := map[uint8]uint32{3: 0xFFFFFFFF, 4: 5, 5: 0xFFFFFFFF, 6: 5, 9: 0x80000000, 10: 0}
	for r, v := range want {
		if got := core.Reg(r); got != v {
			t.Errorf("r%d = %#x, want %#x", r, got, v)
		}
	}
}

func TestRegisterZeroIsHardwired(t *testing.T) {
	core, _ := buildCore(t, `
		addi r0, r0, 123
		add  r1, r0, r0
		halt
	`)
	run(t, core, 100)
	if core.Reg(0) != 0 || core.Reg(1) != 0 {
		t.Errorf("r0 = %d, r1 = %d; r0 must stay 0", core.Reg(0), core.Reg(1))
	}
}

func TestLoadsAndStores(t *testing.T) {
	core, m := buildCore(t, `
		li   r1, 0x1000
		li   r2, 0xDEADBEEF
		sw   r2, 0(r1)
		lw   r3, 0(r1)
		lb   r4, 3(r1)      ; 0xDE sign-extended
		lbu  r5, 3(r1)      ; 0xDE zero-extended
		addi r6, r0, 0x5A
		sb   r6, 1(r1)
		lw   r7, 0(r1)
		halt
	`)
	run(t, core, 100)
	if core.Reg(3) != 0xDEADBEEF {
		t.Errorf("lw = %#x", core.Reg(3))
	}
	if core.Reg(4) != 0xFFFFFFDE {
		t.Errorf("lb sign extension = %#x", core.Reg(4))
	}
	if core.Reg(5) != 0xDE {
		t.Errorf("lbu = %#x", core.Reg(5))
	}
	if core.Reg(7) != 0xDEAD5AEF {
		t.Errorf("after sb = %#x", core.Reg(7))
	}
	if m.LoadWord(0x1000) != 0xDEAD5AEF {
		t.Errorf("memory = %#x", m.LoadWord(0x1000))
	}
}

func TestBranchLoop(t *testing.T) {
	core, _ := buildCore(t, `
		addi r1, r0, 10     ; counter
		add  r2, r0, r0     ; sum
	loop:
		add  r2, r2, r1
		subi r1, r1, 1
		bne  r1, r0, loop
		halt
	`)
	run(t, core, 1000)
	if got := core.Reg(2); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	st := core.Stats()
	if st.Branches != 10 || st.Taken != 9 {
		t.Errorf("branches = %d taken = %d, want 10/9", st.Branches, st.Taken)
	}
}

func TestJalAndRet(t *testing.T) {
	core, _ := buildCore(t, `
		addi r1, r0, 5
		jal  double
		mv   r3, r1
		halt
	double:
		add  r1, r1, r1
		ret
	`)
	run(t, core, 100)
	if core.Reg(3) != 10 {
		t.Errorf("result = %d, want 10", core.Reg(3))
	}
}

func TestSwapAtomic(t *testing.T) {
	core, m := buildCore(t, `
		li   r1, 0x2000
		addi r2, r0, 111
		sw   r2, 0(r1)
		addi r3, r0, 222
		swap r3, 0(r1)
		halt
	`)
	run(t, core, 100)
	if core.Reg(3) != 111 {
		t.Errorf("swap returned %d, want old value 111", core.Reg(3))
	}
	if m.LoadWord(0x2000) != 222 {
		t.Errorf("memory after swap = %d", m.LoadWord(0x2000))
	}
}

func TestHaltGoesIdle(t *testing.T) {
	core, _ := buildCore(t, "halt")
	for now := uint64(0); now < 10; now++ {
		core.Step(now)
	}
	st := core.Stats()
	if st.ActiveCycles != 1 || st.IdleCycles != 9 {
		t.Errorf("active=%d idle=%d, want 1/9", st.ActiveCycles, st.IdleCycles)
	}
	if core.State() != Idle {
		t.Errorf("state = %v", core.State())
	}
}

func TestFaultOnUnmapped(t *testing.T) {
	core, _ := buildCore(t, `
		li r1, 0x40000000
		lw r2, 0(r1)
		halt
	`)
	for now := uint64(0); now < 100 && !core.Halted(); now++ {
		core.Step(now)
	}
	if core.Fault() == nil {
		t.Fatal("expected fault")
	}
	if !strings.Contains(core.Fault().Error(), "unmapped") {
		t.Errorf("fault = %v", core.Fault())
	}
	// A faulted core idles forever.
	core.Step(200)
	if core.State() != Idle {
		t.Error("faulted core not idle")
	}
}

func TestFaultOnIllegalInstruction(t *testing.T) {
	core, _ := buildCore(t, `
		.word 0xFC000000   ; opcode 63: illegal
	`)
	core.Step(0)
	if core.Fault() == nil {
		t.Fatal("expected illegal instruction fault")
	}
}

func TestStallAccountingWithSlowMemory(t *testing.T) {
	im := asm.MustAssemble(`
		lw r1, 0x100(r0)
		halt
	`)
	ctl := mem.NewController("ctl0", 0)
	priv := mem.NewMemory("priv", 64*1024, 4)
	if err := ctl.AddRange(mem.Range{Name: "priv", Base: 0, Target: priv, Kind: mem.KindPrivate}); err != nil {
		t.Fatal(err)
	}
	for _, s := range im.Sections {
		priv.WriteBytes(s.Addr, s.Data)
	}
	core := New(0, Microblaze, ctl)
	core.Reset(im.Entry)
	var now uint64
	for ; !core.Halted() && now < 100; now++ {
		core.Step(now)
	}
	st := core.Stats()
	// Two instructions; lw pays fetch (4) + load (4) = 8 stall cycles. The
	// halt's own fetch stalls are absorbed into idle (a halted core does
	// not stall).
	if st.Instructions != 2 {
		t.Fatalf("instructions = %d", st.Instructions)
	}
	if st.ActiveCycles != 2 || st.StallCycles != 8 {
		t.Errorf("active=%d stall=%d, want 2/8", st.ActiveCycles, st.StallCycles)
	}
	if st.Loads != 1 {
		t.Errorf("loads = %d", st.Loads)
	}
}

func TestActivityFraction(t *testing.T) {
	s := Stats{ActiveCycles: 25, StallCycles: 50, IdleCycles: 25}
	if got := s.Activity(); got != 0.25 {
		t.Errorf("activity = %v", got)
	}
	if (Stats{}).Activity() != 0 {
		t.Error("empty stats activity should be 0")
	}
}

// Property test: R-type ALU semantics match Go reference semantics for
// random operand values.
func TestALUSemanticsQuick(t *testing.T) {
	ref := map[isa.Funct]func(a, b uint32) uint32{
		isa.FnAdd: func(a, b uint32) uint32 { return a + b },
		isa.FnSub: func(a, b uint32) uint32 { return a - b },
		isa.FnAnd: func(a, b uint32) uint32 { return a & b },
		isa.FnOr:  func(a, b uint32) uint32 { return a | b },
		isa.FnXor: func(a, b uint32) uint32 { return a ^ b },
		isa.FnNor: func(a, b uint32) uint32 { return ^(a | b) },
		isa.FnSll: func(a, b uint32) uint32 { return a << (b & 31) },
		isa.FnSrl: func(a, b uint32) uint32 { return a >> (b & 31) },
		isa.FnSra: func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) },
		isa.FnMul: func(a, b uint32) uint32 { return a * b },
	}
	f := func(a, b uint32, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fns := []isa.Funct{isa.FnAdd, isa.FnSub, isa.FnAnd, isa.FnOr, isa.FnXor,
			isa.FnNor, isa.FnSll, isa.FnSrl, isa.FnSra, isa.FnMul}
		fn := fns[r.Intn(len(fns))]
		got, err := aluR(fn, a, b)
		if err != nil {
			return false
		}
		return got == ref[fn](a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property test: signed div/rem obey the Euclidean identity a = q*b + r
// whenever b != 0 and no overflow occurs.
func TestDivRemIdentityQuick(t *testing.T) {
	f := func(a, b int32) bool {
		if b == 0 || (a == -1<<31 && b == -1) {
			return true
		}
		q, _ := aluR(isa.FnDiv, uint32(a), uint32(b))
		r, _ := aluR(isa.FnRem, uint32(a), uint32(b))
		return int64(int32(q))*int64(b)+int64(int32(r)) == int64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsState(t *testing.T) {
	core, _ := buildCore(t, `
		addi r1, r0, 9
		halt
	`)
	run(t, core, 10)
	core.Reset(0)
	if core.Reg(1) != 0 || core.Halted() || core.PC() != 0 || core.Stats().Instructions != 0 {
		t.Error("reset did not clear state")
	}
}
