package bus

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := OPB(4).Validate(); err != nil {
		t.Errorf("OPB rejected: %v", err)
	}
	if err := PLB(4).Validate(); err != nil {
		t.Errorf("PLB rejected: %v", err)
	}
	bad := []Config{
		{Name: "w", WidthBits: 0, Masters: 1},
		{Name: "w2", WidthBits: 33, Masters: 1},
		{Name: "m", WidthBits: 32, Masters: 0},
		{Name: "t", WidthBits: 32, Masters: 2, Arbitration: TDMA, SlotCycles: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestUncontendedTransaction(t *testing.T) {
	b := MustNew(OPB(2))
	// word read: arb(1) + addr(1) + target(5) + 1 beat = 8
	if got := b.Transaction(0, 0, 4, false, 5); got != 8 {
		t.Errorf("latency = %d, want 8", got)
	}
	s := b.Stats()
	if s.Transactions != 1 || s.Reads != 1 || s.WaitCycles != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBurstBeats(t *testing.T) {
	b32 := MustNew(Custom(1, RoundRobin, 32))
	b64 := MustNew(PLB(1))
	l32 := b32.Transaction(0, 0, 32, false, 0) // 8 beats
	l64 := b64.Transaction(0, 0, 32, false, 0) // 4 beats
	if l32 <= l64 {
		t.Errorf("32-bit burst (%d) should be slower than 64-bit (%d)", l32, l64)
	}
	if b32.Stats().BeatsCarried != 8 || b64.Stats().BeatsCarried != 4 {
		t.Errorf("beats = %d/%d", b32.Stats().BeatsCarried, b64.Stats().BeatsCarried)
	}
}

func TestContentionSerialises(t *testing.T) {
	b := MustNew(OPB(2))
	l0 := b.Transaction(0, 0, 4, true, 10)
	l1 := b.Transaction(1, 0, 4, true, 10)
	if l1 <= l0 {
		t.Errorf("contended transaction (%d) not delayed past first (%d)", l1, l0)
	}
	if b.WaitCyclesOf(1) == 0 {
		t.Error("master 1 recorded no wait cycles")
	}
	// After the bus drains, latency drops back.
	l2 := b.Transaction(1, 1000, 4, true, 10)
	if l2 >= l1 {
		t.Errorf("uncontended latency %d not below contended %d", l2, l1)
	}
}

func TestFixedPriorityPenalty(t *testing.T) {
	b := MustNew(PLB(4))
	b.Transaction(0, 0, 4, false, 50) // hold the bus
	lHigh := b.Transaction(0, 1, 4, false, 0)
	b2 := MustNew(PLB(4))
	b2.Transaction(0, 0, 4, false, 50)
	lLow := b2.Transaction(3, 1, 4, false, 0)
	if lLow <= lHigh {
		t.Errorf("low-priority master (%d) should wait longer than high (%d)", lLow, lHigh)
	}
}

func TestTDMASlotAlignment(t *testing.T) {
	cfg := Custom(4, TDMA, 32)
	cfg.SlotCycles = 10
	b := MustNew(cfg)
	// Master 2's slot starts at cycle 20 within the 40-cycle frame.
	lat := b.Transaction(2, 0, 4, false, 0)
	if lat < 20 {
		t.Errorf("TDMA master 2 at cycle 0 granted after %d, want >= 20", lat)
	}
	// Master 0 at the start of its own slot waits nothing extra.
	b2 := MustNew(cfg)
	lat0 := b2.Transaction(0, 0, 4, false, 0)
	if lat0 > 5 {
		t.Errorf("TDMA master 0 in-slot latency = %d", lat0)
	}
}

func TestRoundRobinReArbitration(t *testing.T) {
	b := MustNew(OPB(2))
	b.Transaction(0, 0, 4, false, 0)
	same := MustNew(OPB(2))
	same.Transaction(0, 0, 4, false, 0)
	lSame := same.Transaction(0, 100, 4, false, 0)
	lOther := b.Transaction(1, 100, 4, false, 0)
	if lOther != lSame+1 {
		t.Errorf("re-arbitration: other=%d same=%d, want +1", lOther, lSame)
	}
}

func TestUtilisation(t *testing.T) {
	b := MustNew(OPB(1))
	b.Transaction(0, 0, 4, false, 8)
	u := b.Utilisation(100)
	if u <= 0 || u > 1 {
		t.Errorf("utilisation = %v", u)
	}
	if b.Utilisation(0) != 0 {
		t.Error("zero elapsed must give 0")
	}
}

// Property: latency is always at least the intrinsic transfer time and the
// busy horizon never goes backwards.
func TestLatencyLowerBoundQuick(t *testing.T) {
	f := func(seed uint32) bool {
		b := MustNew(OPB(4))
		now := uint64(0)
		prevEnd := uint64(0)
		s := seed
		for i := 0; i < 50; i++ {
			s = s*1664525 + 1013904223
			init := int(s % 4)
			bytes := uint32(4 * (1 + s%8))
			tl := uint64(s % 16)
			lat := b.Transaction(init, now, bytes, s%2 == 0, tl)
			min := b.cfg.AddrCycles + tl + b.beats(bytes)
			if lat < min {
				t.Logf("lat %d < intrinsic %d", lat, min)
				return false
			}
			if b.busyUntil < prevEnd {
				t.Logf("busy horizon went backwards")
				return false
			}
			prevEnd = b.busyUntil
			now += uint64(s % 7)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInitiatorRangePanic(t *testing.T) {
	b := MustNew(OPB(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range initiator")
		}
	}()
	b.Transaction(5, 0, 4, false, 0)
}
