package cpu

// Tests for the skip-ahead support surface: wake-cycle reporting and bulk
// stall accrual. The contract under test is bit-identity: AccrueStall(n)
// must be indistinguishable from n per-cycle Step calls on a stalled core.

import (
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/mem"
)

// buildSlowCore assembles src onto a core whose private memory has the
// given access latency, so loads and fetches produce real stall spans.
func buildSlowCore(t *testing.T, latency uint64, src string) *Core {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ctl := mem.NewController("ctl0", 0)
	priv := mem.NewMemory("priv", 64*1024, latency)
	if err := ctl.AddRange(mem.Range{Name: "priv", Base: 0, Target: priv, Kind: mem.KindPrivate}); err != nil {
		t.Fatal(err)
	}
	for _, s := range im.Sections {
		priv.WriteBytes(s.Addr, s.Data)
	}
	core := New(0, Microblaze, ctl)
	core.Reset(im.Entry)
	return core
}

const slowLoop = `
	addi r1, r0, 20
loop:
	lw   r2, 0x100(r0)
	add  r3, r3, r2
	dec  r1
	bne  r1, r0, loop
	halt
`

// TestSkipSteppingMatchesPerCycle steps one core per-cycle and a twin with
// wake-cycle jumps plus bulk accrual, and demands identical statistics,
// registers and timing.
func TestSkipSteppingMatchesPerCycle(t *testing.T) {
	ref := buildSlowCore(t, 3, slowLoop)
	skip := buildSlowCore(t, 3, slowLoop)

	const maxCycles = 10_000
	var refEnd uint64
	for now := uint64(0); now < maxCycles && !ref.Halted(); now++ {
		ref.Step(now)
		refEnd = now + 1
	}
	if !ref.Halted() {
		t.Fatal("reference core did not halt")
	}

	var skipEnd uint64
	for now := uint64(0); now < maxCycles && !skip.Halted(); {
		w := skip.WakeCycle(now)
		if w > now {
			skip.AccrueStall(w - now)
			now = w
		}
		skip.Step(now)
		now++
		skipEnd = now
	}
	if !skip.Halted() {
		t.Fatal("skip-stepped core did not halt")
	}

	if refEnd != skipEnd {
		t.Fatalf("end cycle: per-cycle %d, skip %d", refEnd, skipEnd)
	}
	if ref.Stats() != skip.Stats() {
		t.Fatalf("stats diverge:\nper-cycle %+v\nskip      %+v", ref.Stats(), skip.Stats())
	}
	if ref.PC() != skip.PC() {
		t.Fatalf("pc: per-cycle %#x, skip %#x", ref.PC(), skip.PC())
	}
	for r := uint8(0); r < 32; r++ {
		if ref.Reg(r) != skip.Reg(r) {
			t.Fatalf("r%d: per-cycle %#x, skip %#x", r, ref.Reg(r), skip.Reg(r))
		}
	}
}

// TestAccrueStallPartialSpan cuts a stall span at an arbitrary boundary —
// what a kernel does when a sampling window ends mid-stall — and checks the
// remainder is consumed per-cycle with identical books.
func TestAccrueStallPartialSpan(t *testing.T) {
	c := buildSlowCore(t, 5, slowLoop)
	c.Step(0)
	s := c.StallRemaining()
	if s < 2 {
		t.Fatalf("expected a multi-cycle stall, got %d", s)
	}
	c.AccrueStall(s - 1)
	if c.State() != Stalled {
		t.Fatalf("state after partial accrual = %v, want stalled", c.State())
	}
	if got := c.StallRemaining(); got != 1 {
		t.Fatalf("remaining stall = %d, want 1", got)
	}
	if got := c.Stats().StallCycles; got != s-1 {
		t.Fatalf("stall cycles = %d, want %d", got, s-1)
	}
	// The last stalled cycle still behaves exactly like a per-cycle step.
	c.Step(s) // consumes the final stall cycle
	if c.State() != Stalled || c.StallRemaining() != 0 {
		t.Fatalf("final stall step: state %v, remaining %d", c.State(), c.StallRemaining())
	}
}

func TestAccrueStallZeroIsNoop(t *testing.T) {
	c := buildSlowCore(t, 3, slowLoop)
	c.Step(0)
	before, state := c.Stats(), c.State()
	c.AccrueStall(0)
	if c.Stats() != before || c.State() != state {
		t.Fatal("AccrueStall(0) changed observable state")
	}
}

func TestAccrueStallBeyondOutstandingPanics(t *testing.T) {
	c := buildSlowCore(t, 3, slowLoop)
	c.Step(0)
	defer func() {
		if recover() == nil {
			t.Fatal("AccrueStall beyond the outstanding stall did not panic")
		}
	}()
	c.AccrueStall(c.StallRemaining() + 1)
}

func TestWakeCycleReporting(t *testing.T) {
	c := buildSlowCore(t, 4, slowLoop)
	if got := c.WakeCycle(0); got != 0 {
		t.Fatalf("fresh core wake = %d, want 0 (ready now)", got)
	}
	c.Step(0)
	s := c.StallRemaining()
	if s == 0 {
		t.Fatal("expected the first step to leave a stall")
	}
	if got := c.WakeCycle(1); got != 1+s {
		t.Fatalf("wake after step = %d, want %d", got, 1+s)
	}
	// Halt the core: wake becomes never.
	h := buildSlowCore(t, 0, "halt\n")
	h.Step(0)
	if !h.Halted() {
		t.Fatal("core did not halt")
	}
	if got := h.WakeCycle(1); got != WakeNever {
		t.Fatalf("halted wake = %d, want WakeNever", got)
	}
}
