package sniffer

import (
	"testing"
	"testing/quick"
)

func TestRingPushPop(t *testing.T) {
	r := NewRing(3)
	for i := uint64(0); i < 3; i++ {
		if !r.Push(Event{Cycle: i}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if !r.Full() {
		t.Error("ring should be full")
	}
	if r.Push(Event{Cycle: 9}) {
		t.Error("push into full ring succeeded")
	}
	for i := uint64(0); i < 3; i++ {
		ev, ok := r.Pop()
		if !ok || ev.Cycle != i {
			t.Fatalf("pop %d: got %v, %v", i, ev, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop from empty ring succeeded")
	}
}

// TestRingAllocatesOnFirstUse: platforms that never log events must not pay
// for the buffer, yet Cap reports the configured capacity throughout.
func TestRingAllocatesOnFirstUse(t *testing.T) {
	r := NewRing(4096)
	if err := r.RestoreState(nil); err != nil {
		t.Fatal(err)
	}
	if r.buf != nil || r.Cap() != 4096 || r.Len() != 0 {
		t.Fatalf("unused ring: buf allocated=%v cap=%d len=%d", r.buf != nil, r.Cap(), r.Len())
	}
	if !r.Push(Event{Cycle: 1}) || len(r.buf) != 4096 || r.Cap() != 4096 {
		t.Fatalf("first push: len(buf)=%d cap=%d", len(r.buf), r.Cap())
	}
	q := NewRing(2)
	if err := q.RestoreState([]Event{{Cycle: 5}}); err != nil {
		t.Fatal(err)
	}
	if ev, ok := q.Pop(); !ok || ev.Cycle != 5 {
		t.Fatalf("restored ring popped %v, %v", ev, ok)
	}
	if err := q.RestoreState(make([]Event, 3)); err == nil {
		t.Error("restore beyond capacity accepted")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(4)
	for i := uint64(0); i < 100; i++ {
		if !r.Push(Event{Cycle: i}) {
			t.Fatalf("push %d", i)
		}
		ev, _ := r.Pop()
		if ev.Cycle != i {
			t.Fatalf("wrap: got %d want %d", ev.Cycle, i)
		}
	}
}

func TestRingDrain(t *testing.T) {
	r := NewRing(8)
	for i := uint64(0); i < 5; i++ {
		r.Push(Event{Cycle: i})
	}
	buf := make([]Event, 3)
	if n := r.Drain(buf); n != 3 {
		t.Fatalf("drain = %d", n)
	}
	if buf[0].Cycle != 0 || buf[2].Cycle != 2 {
		t.Errorf("drained %v", buf)
	}
	if r.Len() != 2 {
		t.Errorf("remaining = %d", r.Len())
	}
}

// Property: a ring never loses or reorders events under random interleaved
// push/pop traffic.
func TestRingFIFOPropertyQuick(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewRing(16)
		next, expect := uint64(0), uint64(0)
		for _, push := range ops {
			if push {
				if r.Push(Event{Cycle: next}) {
					next++
				}
			} else if ev, ok := r.Pop(); ok {
				if ev.Cycle != expect {
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountSniffer(t *testing.T) {
	s := NewCountSniffer("core0")
	active := s.Register("active_cycles")
	misses := s.Register("cache_misses")
	if again := s.Register("active_cycles"); again != active {
		t.Error("re-registration changed index")
	}
	s.Add(active, 10)
	s.Add(misses, 2)
	s.Add(active, 5)
	if s.Value(active) != 15 || s.Value(misses) != 2 {
		t.Errorf("values = %d, %d", s.Value(active), s.Value(misses))
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Name != "active_cycles" || snap[0].Value != 15 {
		t.Errorf("snapshot = %v", snap)
	}
	// Disabled sniffers ignore updates (run-time deactivation via SW).
	s.SetEnabled(false)
	s.Add(active, 100)
	if s.Value(active) != 15 {
		t.Error("disabled sniffer counted")
	}
	s.SetEnabled(true)
	s.Set(misses, 7)
	if s.Value(misses) != 7 {
		t.Error("Set failed")
	}
	s.Reset()
	if s.Value(active) != 0 {
		t.Error("reset failed")
	}
}

func TestEventSnifferLogsAndDrops(t *testing.T) {
	ring := NewRing(2)
	s := NewEventSniffer("mem0", 3, ring, nil)
	s.Log(1, EvMemRead, 0x100, 0)
	s.Log(2, EvMemWrite, 0x104, 42)
	s.Log(3, EvCacheMiss, 0x108, 0) // full, no onFull: dropped
	if s.Logged != 2 || s.Dropped != 1 || s.FullHits != 1 {
		t.Errorf("logged=%d dropped=%d full=%d", s.Logged, s.Dropped, s.FullHits)
	}
	ev, _ := ring.Pop()
	if ev.Source != 3 || ev.Kind != EvMemRead || ev.Addr != 0x100 {
		t.Errorf("event = %+v", ev)
	}
}

func TestEventSnifferCongestionCallback(t *testing.T) {
	ring := NewRing(1)
	drains := 0
	s := NewEventSniffer("bus", 0, ring, func() bool {
		drains++
		// The dispatcher drains the ring (freezing the virtual clock in
		// the real platform while it does so).
		for {
			if _, ok := ring.Pop(); !ok {
				break
			}
		}
		return true
	})
	s.Log(1, EvBusTxn, 0, 0)
	s.Log(2, EvBusTxn, 0, 0) // triggers drain, then succeeds
	if drains != 1 {
		t.Errorf("drains = %d", drains)
	}
	if s.Dropped != 0 || s.Logged != 2 {
		t.Errorf("logged=%d dropped=%d", s.Logged, s.Dropped)
	}
}

func TestEventSnifferDisabled(t *testing.T) {
	ring := NewRing(4)
	s := NewEventSniffer("x", 0, ring, nil)
	s.SetEnabled(false)
	s.Log(1, EvFetch, 0, 0)
	if ring.Len() != 0 || s.Logged != 0 {
		t.Error("disabled sniffer logged")
	}
}

func TestHubControlRegisters(t *testing.T) {
	h := NewHub()
	a := NewCountSniffer("a")
	b := NewCountSniffer("b")
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
	h.Register(NewCountSniffer("dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	h.Register(NewCountSniffer("dup"))
}

func TestEventKindStrings(t *testing.T) {
	if EvCacheMiss.String() != "cache-miss" {
		t.Errorf("got %q", EvCacheMiss.String())
	}
	if EventKind(200).String() == "" {
		t.Error("unknown kind produced empty string")
	}
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
