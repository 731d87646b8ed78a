package sniffer

import "testing"

func TestHubControlRegisters(t *testing.T) {
	h := NewHub()
	a := NewActivity("a")
	b := NewActivity("b")
	ia := h.Register(a)
	ib := h.Register(b)
	if h.Len() != 2 {
		t.Fatalf("len = %d", h.Len())
	}
	// Disable b through its memory-mapped register.
	h.CtrlStore(uint32(ib), 0)
	if b.Enabled() {
		t.Error("ctrl store did not disable")
	}
	if h.CtrlLoad(uint32(ib)) != 0 || h.CtrlLoad(uint32(ia)) != 1 {
		t.Error("ctrl load wrong")
	}
	h.CtrlStore(uint32(ib), 1)
	if !b.Enabled() {
		t.Error("ctrl store did not re-enable")
	}
	// Out-of-range registers are inert.
	h.CtrlStore(99, 0)
	if h.CtrlLoad(99) != 0 {
		t.Error("missing register should read 0")
	}
	if s, ok := h.Lookup("a"); !ok || s != a {
		t.Error("lookup failed")
	}
	if _, ok := h.Lookup("zzz"); ok {
		t.Error("phantom lookup")
	}
}

func TestHubDuplicatePanics(t *testing.T) {
	h := NewHub()
	h.Register(NewActivity("dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	h.Register(NewActivity("dup"))
}

func TestActivitySnifferAccrueEqualsTicks(t *testing.T) {
	ticked := NewActivity("a0")
	accrued := NewActivity("a1")
	spans := []struct {
		m Mode
		n uint64
	}{{ModeActive, 3}, {ModeStalled, 17}, {ModeActive, 1}, {ModeIdle, 9}}
	for _, s := range spans {
		for i := uint64(0); i < s.n; i++ {
			ticked.Tick(s.m)
		}
		accrued.Accrue(s.m, s.n)
	}
	for _, m := range []Mode{ModeActive, ModeStalled, ModeIdle} {
		if ticked.Count(m) != accrued.Count(m) {
			t.Errorf("%s: ticked %d, accrued %d", m, ticked.Count(m), accrued.Count(m))
		}
	}
	if ticked.Cycles() != 30 || accrued.Cycles() != 30 {
		t.Errorf("totals = %d, %d, want 30", ticked.Cycles(), accrued.Cycles())
	}
}

func TestActivitySnifferDisableAndReset(t *testing.T) {
	a := NewActivity("a0")
	if !a.Enabled() || a.Name() != "a0" {
		t.Fatalf("fresh sniffer: enabled=%v name=%q", a.Enabled(), a.Name())
	}
	a.Accrue(ModeStalled, 5)
	a.SetEnabled(false)
	a.Accrue(ModeStalled, 100)
	a.Tick(ModeActive)
	if a.Count(ModeStalled) != 5 || a.Count(ModeActive) != 0 {
		t.Errorf("disabled sniffer counted: %d/%d", a.Count(ModeStalled), a.Count(ModeActive))
	}
	a.SetEnabled(true)
	a.Reset()
	if a.Cycles() != 0 {
		t.Errorf("cycles after reset = %d", a.Cycles())
	}
}

func TestModeStrings(t *testing.T) {
	if ModeActive.String() != "active" || ModeStalled.String() != "stalled" || ModeIdle.String() != "idle" {
		t.Errorf("mode names: %s/%s/%s", ModeActive, ModeStalled, ModeIdle)
	}
	if Mode(9).String() != "mode(9)" {
		t.Errorf("unknown mode = %s", Mode(9))
	}
}
