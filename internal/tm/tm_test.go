package tm

import (
	"strings"
	"testing"
	"testing/quick"
)

func sensors(temps ...float64) []Sensor {
	out := make([]Sensor, len(temps))
	for i, t := range temps {
		out[i] = Sensor{Name: "s", TempK: t}
	}
	return out
}

func TestNullPolicy(t *testing.T) {
	var p NullPolicy
	if a := p.Update(sensors(400, 500)); a.SetFreqHz != 0 {
		t.Errorf("null policy acted: %+v", a)
	}
	if p.Name() != "none" {
		t.Error("name")
	}
}

func TestThresholdDFSPaperBehaviour(t *testing.T) {
	p := NewThresholdDFS()
	// Below both thresholds: nothing happens.
	if a := p.Update(sensors(320, 330)); a.SetFreqHz != 0 {
		t.Errorf("acted while cool: %+v", a)
	}
	// One component crosses 350 K: throttle to 100 MHz.
	a := p.Update(sensors(351, 330))
	if a.SetFreqHz != 100e6 {
		t.Fatalf("expected 100 MHz, got %d", a.SetFreqHz)
	}
	if !p.Throttled() {
		t.Error("not throttled")
	}
	// Still above the low threshold: stay throttled (hysteresis).
	if a := p.Update(sensors(345, 341)); a.SetFreqHz != 0 {
		t.Errorf("acted inside hysteresis band: %+v", a)
	}
	// All drop below 340 K: back to 500 MHz.
	a = p.Update(sensors(339, 335))
	if a.SetFreqHz != 500e6 {
		t.Fatalf("expected 500 MHz, got %d", a.SetFreqHz)
	}
	if p.Switches != 2 {
		t.Errorf("switches = %d", p.Switches)
	}
}

func TestThresholdDFSBoundaryConditions(t *testing.T) {
	p := NewThresholdDFS()
	// Exactly 350 K is not "above".
	if a := p.Update(sensors(350)); a.SetFreqHz != 0 {
		t.Error("acted at exactly the high threshold")
	}
	p.Update(sensors(350.001)) // throttle
	// Exactly 340 K is not "below".
	if a := p.Update(sensors(340)); a.SetFreqHz != 0 {
		t.Error("released at exactly the low threshold")
	}
	if a := p.Update(sensors(339.999)); a.SetFreqHz != 500e6 {
		t.Error("did not release below the low threshold")
	}
}

func TestThresholdDFSNoRepeatedActions(t *testing.T) {
	p := NewThresholdDFS()
	p.Update(sensors(360))
	// Hotter still: no second action while already throttled.
	if a := p.Update(sensors(380)); a.SetFreqHz != 0 {
		t.Error("re-throttled")
	}
	if p.Switches != 1 {
		t.Errorf("switches = %d", p.Switches)
	}
}

// Property: the dual-state machine never emits two identical consecutive
// frequency commands, regardless of the temperature trajectory.
func TestThresholdDFSAlternatesQuick(t *testing.T) {
	f := func(temps []uint16) bool {
		p := NewThresholdDFS()
		var last uint64
		for _, raw := range temps {
			tk := 300 + float64(raw%120) // 300..419 K
			a := p.Update(sensors(tk))
			if a.SetFreqHz != 0 {
				if a.SetFreqHz == last {
					return false
				}
				last = a.SetFreqHz
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProportionalDFS(t *testing.T) {
	p := NewProportionalDFS()
	// Cool: full speed.
	a := p.Update(sensors(300))
	if a.SetFreqHz != 500e6 {
		t.Errorf("cool freq = %d", a.SetFreqHz)
	}
	// Hot: minimum speed.
	a = p.Update(sensors(360))
	if a.SetFreqHz != 100e6 {
		t.Errorf("hot freq = %d", a.SetFreqHz)
	}
	// Mid-band: something in between.
	a = p.Update(sensors(345))
	if a.SetFreqHz <= 100e6 || a.SetFreqHz >= 500e6 {
		t.Errorf("mid freq = %d", a.SetFreqHz)
	}
	// Same reading: no redundant action.
	if a := p.Update(sensors(345)); a.SetFreqHz != 0 {
		t.Error("redundant action")
	}
}

func TestPolicyNames(t *testing.T) {
	if !strings.Contains(NewThresholdDFS().Name(), "350K") {
		t.Errorf("name = %q", NewThresholdDFS().Name())
	}
	if NewProportionalDFS().Name() == "" {
		t.Error("empty name")
	}
}

func TestSensorModel(t *testing.T) {
	ideal := SensorModel{}
	if got := ideal.Read(345.678); got != 345.678 {
		t.Errorf("ideal sensor altered reading: %v", got)
	}
	quant := SensorModel{StepK: 0.5}
	if got := quant.Read(345.678); got != 345.5 {
		t.Errorf("quantised = %v, want 345.5", got)
	}
	if got := quant.Read(345.80); got != 346.0 {
		t.Errorf("quantised = %v, want 346.0", got)
	}
	offs := SensorModel{StepK: 1, OffsetK: -2}
	if got := offs.Read(350.4); got != 348.0 {
		t.Errorf("offset+quantised = %v, want 348", got)
	}
}

func TestQuantisedSensorsStillDriveThresholds(t *testing.T) {
	// With a 1 K sensor step, 350.4 K reads as exactly 350 K — not above
	// the threshold, so the policy must hold; 350.6 K reads as 351 K and
	// must trip it. Quantisation shifts the effective trip point but never
	// deadlocks the machine.
	p := NewThresholdDFS()
	s := SensorModel{StepK: 1}
	if a := p.Update(sensors(s.Read(350.4))); a.SetFreqHz != 0 {
		t.Error("reading of exactly 350 K tripped the >350 K threshold")
	}
	if a := p.Update(sensors(s.Read(350.6))); a.SetFreqHz != 100e6 {
		t.Error("reading of 351 K did not trip the threshold")
	}
}

// FloorHz bounds every frequency the DFS policies request over a sweep of
// sensor readings across and beyond their bands, and the sweep reaches it;
// the ill-formed proportional bands read an unknown floor.
func TestFloorHzBoundsEveryRequest(t *testing.T) {
	for _, p := range []Policy{NewThresholdDFS(), NewProportionalDFS(),
		&ProportionalDFS{HighK: 360, LowK: 330, MaxFreqHz: 400e6, MinFreqHz: 150e6, Steps: 7}} {
		floor, reached := p.FloorHz(), false
		if floor == 0 {
			t.Fatalf("%s: unknown floor", p.Name())
		}
		for _, k := range []float64{300, 335, 341, 345, 347, 349, 351, 356, 362, 380, 345, 338, 320, 300} {
			for step := 0.0; step < 1; step += 0.25 {
				hz := p.Update(sensors(k+step, 300)).SetFreqHz
				if hz != 0 && hz < floor {
					t.Fatalf("%s: requested %d Hz, below its floor %d Hz", p.Name(), hz, floor)
				}
				reached = reached || hz == floor
			}
		}
		if !reached {
			t.Errorf("%s: never requested its floor %d Hz", p.Name(), floor)
		}
	}
	for _, p := range []*ProportionalDFS{{MinFreqHz: 0, MaxFreqHz: 500e6, Steps: 5},
		{MinFreqHz: 500e6, MaxFreqHz: 100e6, Steps: 5}, {MinFreqHz: 100e6, MaxFreqHz: 500e6, Steps: 1}} {
		if floor := p.FloorHz(); floor != 0 {
			t.Errorf("%+v: floor %d, want 0 (unknown)", p, floor)
		}
	}
}
