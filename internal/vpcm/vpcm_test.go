package vpcm

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAdvanceTimeAccounting(t *testing.T) {
	v := New(100e6, 500e6)
	v.Advance(500) // 500 cycles at 500 MHz = 1 µs virtual
	if got := v.TimePs(); got != 1_000_000 {
		t.Errorf("virtual time = %d ps, want 1e6", got)
	}
	// Physically those cycles run at 100 MHz = 5 µs wall.
	if got := v.WallPs(); got != 5_000_000 {
		t.Errorf("wall time = %d ps, want 5e6", got)
	}
	if v.Cycle() != 500 {
		t.Errorf("cycle = %d", v.Cycle())
	}
	if v.SpeedRatio() != 5 {
		t.Errorf("ratio = %v", v.SpeedRatio())
	}
}

func TestDFSHistory(t *testing.T) {
	v := New(100e6, 500e6)
	v.Advance(100)
	v.SetFrequency(100e6)
	v.Advance(100)
	v.SetFrequency(100e6) // no-op
	v.SetFrequency(500e6)
	h := v.History()
	if len(h) != 3 {
		t.Fatalf("history length = %d, want 3", len(h))
	}
	if h[0].Hz != 500e6 || h[1].Hz != 100e6 || h[2].Hz != 500e6 {
		t.Errorf("history = %+v", h)
	}
	if h[1].Cycle != 100 {
		t.Errorf("change cycle = %d", h[1].Cycle)
	}
	if v.DFSEvents() != 2 {
		t.Errorf("DFS events = %d", v.DFSEvents())
	}
	// Time advances slower at the lower frequency.
	if h[2].TimePs-h[1].TimePs != 100*10_000 {
		t.Errorf("low-frequency period wrong: %d", h[2].TimePs-h[1].TimePs)
	}
}

func TestSuppression(t *testing.T) {
	v := New(100e6, 100e6)
	v.AddSuppression("ddr", 15)
	v.AddSuppression("ddr", 5)
	v.AddSuppression("shared", 10)
	if v.SuppressionCycles() != 30 {
		t.Errorf("total = %d", v.SuppressionCycles())
	}
	by := v.SuppressionBySource()
	if len(by) != 2 || by[0].Source != "ddr" || by[0].Cycles != 20 {
		t.Errorf("by source = %+v", by)
	}
	// Suppression adds wall time but no virtual time.
	if v.TimePs() != 0 {
		t.Error("suppression advanced virtual time")
	}
	if v.WallPs() != 30*10_000 {
		t.Errorf("wall = %d", v.WallPs())
	}
}

func TestNewRejectsZeroFrequencies(t *testing.T) {
	for _, pair := range [][2]uint64{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", pair[0], pair[1])
				}
			}()
			New(pair[0], pair[1])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetFrequency(0) did not panic")
			}
		}()
		New(1e6, 1e6).SetFrequency(0)
	}()
}

// Property: virtual time is monotone and equals the sum of cycles times the
// period in force when each batch was issued.
func TestTimeMonotoneQuick(t *testing.T) {
	freqs := []uint64{100e6, 200e6, 250e6, 500e6}
	f := func(steps []uint8) bool {
		v := New(100e6, 100e6)
		var want uint64
		cur := uint64(100e6)
		for i, s := range steps {
			n := uint64(s)
			if i%3 == 2 {
				cur = freqs[int(s)%len(freqs)]
				v.SetFrequency(cur)
			}
			prev := v.TimePs()
			v.Advance(n)
			want += n * (1_000_000_000_000 / cur)
			if v.TimePs() < prev {
				return false
			}
		}
		return v.TimePs() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrozenTimeBySource(t *testing.T) {
	v := New(100e6, 100e6)
	v.AddFrozenTimeSource("ethernet", 100)
	v.AddFrozenTimeSource("ethernet-resend", 50)
	v.AddFrozenTimeSource("ethernet", 25)
	// A freeze is accounting only: the clock still advances.
	v.Advance(1)
	if got := v.FrozenPs(); got != 175*10_000 {
		t.Errorf("frozen total = %d ps, want %d", got, 175*10_000)
	}
	by := v.FrozenPsBySource()
	if len(by) != 2 {
		t.Fatalf("frozen by source = %+v", by)
	}
	if by[0].Source != "ethernet" || by[0].Ps != 125*10_000 {
		t.Errorf("ethernet = %+v", by[0])
	}
	if by[1].Source != "ethernet-resend" || by[1].Ps != 50*10_000 {
		t.Errorf("ethernet-resend = %+v", by[1])
	}
	// Frozen time counts as wall time, not virtual time.
	if v.TimePs() != 10_000 {
		t.Errorf("virtual time = %d ps, want one cycle", v.TimePs())
	}
	if v.WallPs() != 176*10_000 {
		t.Errorf("wall = %d", v.WallPs())
	}
}

func TestStringSummary(t *testing.T) {
	v := New(100e6, 500e6)
	if s := v.String(); !strings.Contains(s, "500000000") {
		t.Errorf("String() = %q", s)
	}
}

// Property: running cycles first and setting the frequency afterwards at
// the point they started from (SetFrequencyAt) equals setting it first
// (SetFrequency) in time, history and emulation wall time, over any mix of
// advances, suppression and changes.
func TestSetFrequencyAtMatchesSetFrequencyQuick(t *testing.T) {
	freqs := []uint64{100e6, 200e6, 250e6, 500e6}
	f := func(steps []uint16) bool {
		early, late := New(100e6, 500e6), New(100e6, 500e6)
		for i := 0; i+1 < len(steps); i += 2 {
			hz := freqs[int(steps[i])%len(freqs)]
			split := uint64(steps[i] % 7)
			rest := uint64(steps[i+1])
			early.SetFrequency(hz)
			early.Advance(split)
			early.AddSuppression("ddr", split)
			early.Advance(rest)

			cycle, timePs := late.Cycle(), late.TimePs()
			late.Advance(split)
			late.AddSuppression("ddr", split)
			late.SetFrequencyAt(cycle, timePs, hz)
			late.Advance(rest)
			if early.TimePs() != late.TimePs() || early.Cycle() != late.Cycle() {
				return false
			}
		}
		return reflect.DeepEqual(early.History(), late.History()) &&
			early.EmulationWallPs() == late.EmulationWallPs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// SetFrequencyAt refuses a point the clock did not pass at the current
// frequency: before the last change, in the future, or at the wrong time.
func TestSetFrequencyAtRejectsForeignPoints(t *testing.T) {
	for name, bad := range map[string]func(v *VPCM){
		"before last change": func(v *VPCM) { v.SetFrequencyAt(50, 100_000, 200e6) },
		"future cycle":       func(v *VPCM) { v.SetFrequencyAt(500, 1_200_000, 200e6) },
		"wrong time":         func(v *VPCM) { v.SetFrequencyAt(150, 1, 200e6) },
	} {
		t.Run(name, func(t *testing.T) {
			v := New(100e6, 500e6)
			v.Advance(100)
			v.SetFrequency(100e6)
			v.Advance(100)
			defer func() {
				if recover() == nil {
					t.Fatal("accepted")
				}
			}()
			bad(v)
		})
	}
}

// RestoreState accepts a saved clock and refuses one whose last frequency
// change lies past the clock, which SetFrequencyAt could not re-time from.
func TestRestoreStateRejectsHistoryPastClock(t *testing.T) {
	v := New(100e6, 500e6)
	v.Advance(100)
	v.SetFrequency(100e6)
	v.Advance(100)
	s := v.SaveState()
	if err := New(100e6, 500e6).RestoreState(s); err != nil {
		t.Fatalf("saved state refused: %v", err)
	}
	s.History[len(s.History)-1].Cycle = s.Cycle + 1
	if err := New(100e6, 500e6).RestoreState(s); err == nil {
		t.Fatal("history past the clock accepted")
	}
}
