// Package vpcm implements the Virtual Platform Clock Manager (Section 4.2
// of the DAC'06 paper): the hardware element that generates the virtual
// clock domains of the emulated MPSoC from the physical FPGA oscillator.
//
// The VPCM receives three kinds of inputs:
//
//  1. the physical clock (the FPGA oscillator, 100 MHz in the paper);
//  2. VIRTUAL_CLK_SUPPRESSION signals from the memory controllers, raised
//     when a physical device backing an emulated memory cannot honour the
//     user-defined latency (e.g. board DDR standing in for a 10-cycle
//     SRAM) — the virtual clock freezes until the data is available;
//  3. SENSOR signals from the temperature sensors, which drive run-time
//     thermal-management actions such as dynamic frequency scaling (DFS).
//
// It also freezes the virtual clock when the Ethernet connection to the
// host saturates while downloading statistics. Here the emulator is blocked
// by the send or receive call itself while the link drains, so a freeze is
// accounting: the frozen physical time is added to the clock under a named
// source (AddFrozenTimeSource), and no flag stops Advance.
//
// The combination lets the framework emulate, say, a 500 MHz MPSoC on 100 MHz FPGA hardware: with a
// 10 ms statistics sampling period and a 5× virtual/physical ratio, the
// framework samples every 50 ms of real execution but the thermal library
// analyses it as 10 ms of emulated time.
package vpcm

import (
	"fmt"
	"sort"
	"sync"
)

// picosPerSec converts clock periods to picoseconds. Frequencies that do
// not divide 1e12 evenly accumulate sub-picosecond rounding, negligible at
// the 10 ms sampling granularity of the framework.
const picosPerSec = 1_000_000_000_000

// ThermalLagSource is the frozen-time attribution used by the pipelined
// co-emulation loop when the bounded stats hand-off queue fills because the
// thermal solver (or the link behind it) cannot keep up: the virtual clock
// freezes instead of letting windows pile up, exactly like the Ethernet
// congestion freeze of Section 4.2.
const ThermalLagSource = "thermal-lag"

// FreqChange records one DFS event.
type FreqChange struct {
	Cycle  uint64 // virtual platform cycle of the change
	TimePs uint64 // virtual time of the change
	Hz     uint64
}

// VPCM manages the virtual clock of the emulated platform. It splits into
// what the platform alone determines — the cycle count, memory suppression
// and the emulation's physical time — and a View: the virtual frequency,
// virtual time, DFS history and frozen time. Several co-emulations may
// share one platform (one run per TM policy over the same emulated
// trajectory), each with its own View; the frequency-dependent accessors
// read and write the View in use (Use).
type VPCM struct {
	physHz uint64
	cycle  uint64 // virtual platform cycles issued
	// suppMu guards the suppression state: memory controllers may raise
	// suppression concurrently when the platform runs in parallel mode.
	suppMu    sync.Mutex
	suppress  map[string]uint64
	suppTotal uint64
	// wallPs estimates physical (FPGA wall-clock) time: virtual cycles at
	// the physical frequency plus suppression periods. The View adds its
	// freeze periods.
	wallPs uint64
	view   *View // in use
	own    View  // the clock's first View
}

// View is one co-emulation's virtual clock over a platform's cycle count:
// its frequency, its virtual time, its DFS history and the physical time
// it spent frozen. Virtual time is derived from the cycle count, so the
// platform never writes a View while it steps: time at cycle c is the time
// at the start of the current frequency segment plus the cycles since at
// the current period.
type View struct {
	base   *VPCM
	virtHz uint64
	// The current frequency segment began at (segCycle, segTimePs).
	segCycle  uint64
	segTimePs uint64
	history   []FreqChange
	// freezeMu guards the per-source frozen-time attribution: the link
	// layer may account resend stalls while observers read the totals.
	freezeMu    sync.Mutex
	frozenPs    uint64
	frozenBySrc map[string]uint64
}

// New creates a VPCM with the given physical oscillator frequency and the
// initial virtual frequency of the emulated platform.
func New(physHz, virtHz uint64) *VPCM {
	if physHz == 0 || virtHz == 0 {
		panic("vpcm: frequencies must be positive")
	}
	v := &VPCM{physHz: physHz, suppress: make(map[string]uint64)}
	v.own = View{base: v, virtHz: virtHz, history: []FreqChange{{Cycle: 0, TimePs: 0, Hz: virtHz}}}
	v.view = &v.own
	return v
}

// Fork returns a copy of the view over the same platform clock: a second
// co-emulation that starts from the same virtual time, frequency, history
// and frozen time and then goes its own way.
func (w *View) Fork() *View {
	w.freezeMu.Lock()
	defer w.freezeMu.Unlock()
	f := &View{base: w.base, virtHz: w.virtHz, segCycle: w.segCycle, segTimePs: w.segTimePs,
		history: append([]FreqChange(nil), w.history...), frozenPs: w.frozenPs}
	if w.frozenBySrc != nil {
		f.frozenBySrc = make(map[string]uint64, len(w.frozenBySrc))
		for s, ps := range w.frozenBySrc {
			f.frozenBySrc[s] = ps
		}
	}
	return f
}

// View returns the View in use.
func (v *VPCM) View() *View { return v.view }

// Use makes w, which must come from this VPCM, the View the frequency-,
// time-, history- and freeze-dependent methods read and write.
func (v *VPCM) Use(w *View) {
	if w.base != v {
		panic("vpcm: a View of another clock")
	}
	v.view = w
}

// PhysHz returns the physical oscillator frequency.
func (v *VPCM) PhysHz() uint64 { return v.physHz }

// Frequency returns the current virtual clock frequency.
func (v *VPCM) Frequency() uint64 { return v.view.virtHz }

// SetFrequency performs dynamic frequency scaling on the virtual clock.
func (v *VPCM) SetFrequency(hz uint64) { v.view.SetFrequencyAt(v.cycle, v.TimePs(), hz) }

// SetFrequencyAt is View.SetFrequencyAt on the View in use.
func (v *VPCM) SetFrequencyAt(cycle, timePs, hz uint64) { v.view.SetFrequencyAt(cycle, timePs, hz) }

// SetFrequencyAt performs dynamic frequency scaling as of an earlier point
// of the clock: the change is recorded at (cycle, timePs), and the cycles
// issued since are re-timed at hz. The platform never reads the virtual
// frequency while it steps — Advance counts cycles, and suppression counts
// physical cycles — so cycles may run before the frequency they ran at is
// known. The point must be one the clock passed at the current frequency:
// at or after the last change, at or before the current cycle, and at the
// time the current frequency gives it.
func (w *View) SetFrequencyAt(cycle, timePs, hz uint64) {
	if hz == 0 {
		panic("vpcm: cannot scale to 0 Hz")
	}
	ran := w.base.cycle - cycle
	if cycle > w.base.cycle || cycle < w.history[len(w.history)-1].Cycle ||
		timePs+ran*(picosPerSec/w.virtHz) != w.TimePs() {
		panic(fmt.Sprintf("vpcm: (cycle %d, %d ps) is not a point of the current %d Hz segment",
			cycle, timePs, w.virtHz))
	}
	if hz == w.virtHz {
		return
	}
	w.virtHz = hz
	w.segCycle, w.segTimePs = cycle, timePs
	w.history = append(w.history, FreqChange{Cycle: cycle, TimePs: timePs, Hz: hz})
}

// PhysHz returns the physical oscillator frequency of the view's clock.
func (w *View) PhysHz() uint64 { return w.base.physHz }

// Frequency returns the view's virtual clock frequency.
func (w *View) Frequency() uint64 { return w.virtHz }

// TimePs returns the view's elapsed virtual time in picoseconds.
func (w *View) TimePs() uint64 {
	return w.segTimePs + (w.base.cycle-w.segCycle)*(picosPerSec/w.virtHz)
}

// DFSEvents returns the view's number of frequency changes after reset.
func (w *View) DFSEvents() int { return len(w.history) - 1 }

// History returns every frequency change, oldest first (the initial
// frequency is entry 0).
func (v *VPCM) History() []FreqChange { return v.view.history }

// DFSEvents returns the number of frequency changes after reset.
func (v *VPCM) DFSEvents() int { return v.view.DFSEvents() }

// Cycle returns the virtual platform cycle count.
func (v *VPCM) Cycle() uint64 { return v.cycle }

// TimePs returns the elapsed virtual time in picoseconds.
func (v *VPCM) TimePs() uint64 { return v.view.TimePs() }

// Time returns the elapsed virtual time in seconds.
func (v *VPCM) Time() float64 { return float64(v.TimePs()) * 1e-12 }

// WallPs returns the estimated physical execution time in picoseconds: the
// virtual cycles clocked at the physical frequency plus every suppression
// and freeze period. This models what a wall clock next to the FPGA would
// measure.
func (v *VPCM) WallPs() uint64 {
	return v.EmulationWallPs() + v.view.FrozenPs()
}

// EmulationWallPs returns the physical picoseconds attributable to the
// emulation itself: virtual cycles clocked at the physical frequency plus
// memory-suppression periods, excluding frozen time. Freeze durations are
// measured from the host wall clock (link congestion, solver lag), so they
// vary run to run; everything in EmulationWallPs is a pure function of the
// emulated execution and is therefore bit-reproducible. Golden digests pin
// this value, never WallPs.
func (v *VPCM) EmulationWallPs() uint64 {
	v.suppMu.Lock()
	defer v.suppMu.Unlock()
	return v.wallPs
}

// Advance clocks the virtual platform by n cycles. A freeze never blocks
// it: whoever waits on the link or the solver is the goroutine that would
// advance, and it accounts the wait with AddFrozenTimeSource.
func (v *VPCM) Advance(n uint64) {
	v.cycle += n
	v.wallPs += n * (picosPerSec / v.physHz)
}

// AddSuppression implements mem.SuppressionSink: a memory controller
// requests a virtual-clock inhibition of the given physical cycles because
// its backing device is slower than the modelled latency.
func (v *VPCM) AddSuppression(source string, cycles uint64) {
	v.suppMu.Lock()
	defer v.suppMu.Unlock()
	v.suppress[source] += cycles
	v.suppTotal += cycles
	v.wallPs += cycles * (picosPerSec / v.physHz)
}

// SuppressionCycles returns the total physical cycles of virtual-clock
// suppression requested so far.
func (v *VPCM) SuppressionCycles() uint64 {
	v.suppMu.Lock()
	defer v.suppMu.Unlock()
	return v.suppTotal
}

// SuppressionBySource returns per-source suppression cycles, sorted by
// source name.
func (v *VPCM) SuppressionBySource() []struct {
	Source string
	Cycles uint64
} {
	v.suppMu.Lock()
	defer v.suppMu.Unlock()
	out := make([]struct {
		Source string
		Cycles uint64
	}, 0, len(v.suppress))
	for s, c := range v.suppress {
		out = append(out, struct {
			Source string
			Cycles uint64
		}{s, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// AddFrozenTimeSource is View.AddFrozenTimeSource on the View in use.
func (v *VPCM) AddFrozenTimeSource(source string, physCycles uint64) {
	v.view.AddFrozenTimeSource(source, physCycles)
}

// AddFrozenTimeSource accounts physical time spent with the virtual clock
// frozen, in physical cycles, attributed to a named source (e.g. "ethernet"
// for congestion, "ethernet-resend" for link-loss recovery), so
// observability can split the stall budget. It is safe to call while
// another goroutine advances the clock.
func (w *View) AddFrozenTimeSource(source string, physCycles uint64) {
	ps := physCycles * (picosPerSec / w.base.physHz)
	w.freezeMu.Lock()
	w.frozenPs += ps
	if w.frozenBySrc == nil {
		w.frozenBySrc = make(map[string]uint64)
	}
	w.frozenBySrc[source] += ps
	w.freezeMu.Unlock()
}

// FrozenPs returns the total physical picoseconds spent frozen.
func (v *VPCM) FrozenPs() uint64 { return v.view.FrozenPs() }

// FrozenPs returns the view's total physical picoseconds spent frozen.
func (w *View) FrozenPs() uint64 {
	w.freezeMu.Lock()
	defer w.freezeMu.Unlock()
	return w.frozenPs
}

// FrozenPsBySource returns per-source frozen physical picoseconds, sorted
// by source name.
func (v *VPCM) FrozenPsBySource() []SourcePs { return v.view.FrozenPsBySource() }

// FrozenPsBySource returns the view's per-source frozen physical
// picoseconds, sorted by source name.
func (w *View) FrozenPsBySource() []SourcePs {
	w.freezeMu.Lock()
	defer w.freezeMu.Unlock()
	out := make([]SourcePs, 0, len(w.frozenBySrc))
	for s, ps := range w.frozenBySrc {
		out = append(out, SourcePs{s, ps})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// SpeedRatio returns virtual frequency over physical frequency: how much
// faster the emulated platform is clocked than the FPGA fabric.
func (v *VPCM) SpeedRatio() float64 { return float64(v.Frequency()) / float64(v.physHz) }

// String summarises the clock state.
func (v *VPCM) String() string {
	return fmt.Sprintf("vpcm{virt=%d Hz phys=%d Hz cycle=%d t=%.6fs suppressed=%d}",
		v.Frequency(), v.physHz, v.cycle, v.Time(), v.SuppressionCycles())
}
