// Package tm implements run-time thermal management for the emulated MPSoC
// (Section 7 of the DAC'06 paper): temperature sensors fed by the SW
// thermal library inform the VPCM, which applies dynamic frequency scaling
// (DFS) according to a policy.
//
// The paper's policy is a simple dual-state machine that monitors whether
// any component's temperature rises above 350 K or falls below 340 K and
// switches the platform between 500 MHz and 100 MHz accordingly. The
// package also provides a proportional policy as an exploration extension
// (the paper explicitly positions the framework as a vehicle for exploring
// "complex thermal management policies").
package tm

import (
	"fmt"
	"math"
)

// Sensor is one temperature sensor reading, attached to a floorplan
// component (SENSOR 1..N inputs of the VPCM).
type Sensor struct {
	Name  string
	TempK float64
}

// Action is what a policy asks the VPCM to do after a sensor update.
// A zero Action means "no change".
type Action struct {
	SetFreqHz uint64 // new virtual clock frequency; 0 = keep
}

// Policy decides thermal-management actions from sensor readings.
type Policy interface {
	Name() string
	Update(sensors []Sensor) Action
	// FloorHz is the lowest frequency Update may ever request: 0 when it
	// is unknown, which turns the closed loop's depth-0 overlap off, and
	// math.MaxUint64 for a policy that never requests one. While a window
	// solves, the closed loop emulates the cycles every verdict at or above
	// the floor agrees on, and it aborts on a verdict below the floor.
	FloorHz() uint64
}

// NullPolicy performs no thermal management (the "without TM" curves of
// Figure 6).
type NullPolicy struct{}

// Name implements Policy.
func (NullPolicy) Name() string { return "none" }

// Update implements Policy.
func (NullPolicy) Update([]Sensor) Action { return Action{} }

// FloorHz implements Policy: the null policy never scales.
func (NullPolicy) FloorHz() uint64 { return math.MaxUint64 }

// ThresholdDFS is the paper's dual-state policy: when any sensor exceeds
// HighK the platform drops to LowFreqHz; once every sensor is back below
// LowK it returns to HighFreqHz. The gap between the two thresholds is the
// hysteresis that prevents oscillation.
type ThresholdDFS struct {
	HighK      float64
	LowK       float64
	HighFreqHz uint64
	LowFreqHz  uint64
	throttled  bool
	Switches   int // DFS transitions performed
}

// NewThresholdDFS returns the policy with the paper's parameters:
// thresholds 350 K / 340 K, frequencies 500 MHz / 100 MHz.
func NewThresholdDFS() *ThresholdDFS {
	return &ThresholdDFS{HighK: 350, LowK: 340, HighFreqHz: 500e6, LowFreqHz: 100e6}
}

// Name implements Policy.
func (p *ThresholdDFS) Name() string {
	return fmt.Sprintf("threshold-dfs(%.0fK/%.0fK,%d/%dMHz)",
		p.HighK, p.LowK, p.HighFreqHz/1e6, p.LowFreqHz/1e6)
}

// Throttled reports whether the policy currently holds the low frequency.
func (p *ThresholdDFS) Throttled() bool { return p.throttled }

// FloorHz implements Policy: Update only ever requests one of the two
// frequencies, and a zero one reads as "keep".
func (p *ThresholdDFS) FloorHz() uint64 {
	floor := uint64(math.MaxUint64)
	for _, hz := range [...]uint64{p.LowFreqHz, p.HighFreqHz} {
		if hz != 0 {
			floor = min(floor, hz)
		}
	}
	return floor
}

// Update implements Policy.
func (p *ThresholdDFS) Update(sensors []Sensor) Action {
	anyHot, allCool := false, true
	for _, s := range sensors {
		if s.TempK > p.HighK {
			anyHot = true
		}
		if s.TempK >= p.LowK {
			allCool = false
		}
	}
	switch {
	case !p.throttled && anyHot:
		p.throttled = true
		p.Switches++
		return Action{SetFreqHz: p.LowFreqHz}
	case p.throttled && allCool:
		p.throttled = false
		p.Switches++
		return Action{SetFreqHz: p.HighFreqHz}
	}
	return Action{}
}

// ProportionalDFS is an exploration extension: it scales frequency linearly
// between MinFreqHz (at or above HighK) and MaxFreqHz (at or below LowK),
// quantised to Steps levels to model a realistic clock divider.
type ProportionalDFS struct {
	HighK     float64
	LowK      float64
	MaxFreqHz uint64
	MinFreqHz uint64
	Steps     int
	last      uint64
	Switches  int
}

// NewProportionalDFS returns a 5-step proportional policy over the same
// band as the paper's threshold policy.
func NewProportionalDFS() *ProportionalDFS {
	return &ProportionalDFS{HighK: 350, LowK: 340, MaxFreqHz: 500e6, MinFreqHz: 100e6, Steps: 5}
}

// Name implements Policy.
func (p *ProportionalDFS) Name() string { return "proportional-dfs" }

// FloorHz implements Policy: Update requests Steps quantised frequencies
// from MinFreqHz up. With a zero minimum (the lowest level reads as
// "keep"), a band whose maximum lies below its minimum (Update's
// arithmetic wraps) or fewer than two steps the floor is unknown.
func (p *ProportionalDFS) FloorHz() uint64 {
	if p.MinFreqHz == 0 || p.MaxFreqHz < p.MinFreqHz || p.Steps < 2 {
		return 0
	}
	return p.MinFreqHz
}

// Update implements Policy.
func (p *ProportionalDFS) Update(sensors []Sensor) Action {
	var max float64
	for _, s := range sensors {
		if s.TempK > max {
			max = s.TempK
		}
	}
	frac := (p.HighK - max) / (p.HighK - p.LowK) // 1 at LowK, 0 at HighK
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	steps := p.Steps - 1
	level := int(frac*float64(steps) + 0.5)
	hz := p.MinFreqHz + uint64(level)*(p.MaxFreqHz-p.MinFreqHz)/uint64(steps)
	if hz == p.last {
		return Action{}
	}
	p.last = hz
	p.Switches++
	return Action{SetFreqHz: hz}
}

// SensorModel models a physical on-die temperature sensor: the reading
// handed to the VPCM is the true cell temperature plus a static offset,
// quantised to the sensor's step (FPGA-attached sensors deliver a few
// fixed-point bits, not ideal floats). The zero value is an ideal sensor.
type SensorModel struct {
	StepK   float64 // quantisation step (0 = continuous)
	OffsetK float64 // static calibration error
}

// Read converts a true temperature into the sensor's reading.
func (m SensorModel) Read(trueK float64) float64 {
	v := trueK + m.OffsetK
	if m.StepK > 0 {
		steps := math.Floor(v/m.StepK + 0.5)
		v = steps * m.StepK
	}
	return v
}
