// Package sniffer implements the statistics-extraction subsystem of the
// emulation framework (Section 4 of the DAC'06 paper): HW sniffers that
// transparently monitor signals of the emulated components, and
// memory-mapped control registers so software running on the emulated
// cores can de/activate sniffers at run time.
//
// The paper's sniffers come in two kinds. Count-logging sniffers keep O(1)
// counters of switching activity and high-level events (cache misses, bus
// transactions, memory accesses), so an effectively unlimited number can
// be attached without slowing the emulation; the Activity sniffer here and
// the count-logging statistics of the cores, memory controllers, caches,
// bus and NoC are of this kind, and they are all the thermal loop reads.
// Event-logging sniffers, which log every event into a BRAM buffer that
// the Ethernet dispatcher drains, feed no result this framework
// reproduces and are not modelled; only their FPGA area is
// (internal/fpga).
package sniffer

import "fmt"

// Sniffer is the control surface of every sniffer, matching the paper's
// basic sniffer skeleton.
type Sniffer interface {
	Name() string
	Enabled() bool
	SetEnabled(bool)
}

// Mode is the per-cycle execution mode an activity sniffer attributes
// cycles to. The order matches cpu.State (active, stalled, idle).
type Mode uint8

// Execution modes.
const (
	ModeActive Mode = iota
	ModeStalled
	ModeIdle
	numModes
)

// String returns the mode name.
func (m Mode) String() string {
	names := [...]string{"active", "stalled", "idle"}
	if int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Activity is the count-logging sniffer that watches a core's execution
// mode for the activity-based power model. In hardware it samples the
// pipeline-stall and sleep signals once per clock; the software model
// additionally accepts whole spans, so a skip-ahead kernel that jumps a
// stall or idle region can settle the same books in one call. Accrue(m, n)
// is defined to be exactly n Tick(m) calls, which keeps span-accrued
// counters bit-identical to per-cycle logging.
type Activity struct {
	name    string
	enabled bool
	counts  [numModes]uint64
}

// NewActivity creates an enabled activity sniffer.
func NewActivity(name string) *Activity {
	return &Activity{name: name, enabled: true}
}

// Name implements Sniffer.
func (a *Activity) Name() string { return a.name }

// Enabled implements Sniffer.
func (a *Activity) Enabled() bool { return a.enabled }

// SetEnabled implements Sniffer.
func (a *Activity) SetEnabled(on bool) { a.enabled = on }

// Tick charges one cycle to mode m (no-op while disabled).
func (a *Activity) Tick(m Mode) { a.Accrue(m, 1) }

// Accrue charges cycles cycles to mode m in one step (no-op while
// disabled).
func (a *Activity) Accrue(m Mode, cycles uint64) {
	if a.enabled {
		a.counts[m] += cycles
	}
}

// Count returns the cycles charged to mode m.
func (a *Activity) Count(m Mode) uint64 { return a.counts[m] }

// Cycles returns the total cycles charged across all modes.
func (a *Activity) Cycles() uint64 {
	var t uint64
	for _, c := range a.counts {
		t += c
	}
	return t
}

// Reset zeroes every mode counter.
func (a *Activity) Reset() { a.counts = [numModes]uint64{} }

// Hub registers every sniffer in the platform and exposes the memory-mapped
// enable/disable registers (one register per sniffer: write 0/1, read back
// the enable state).
type Hub struct {
	sniffers []Sniffer
	byName   map[string]int
}

// NewHub creates an empty sniffer registry.
func NewHub() *Hub {
	return &Hub{byName: make(map[string]int)}
}

// Register adds a sniffer and returns its control-register index.
func (h *Hub) Register(s Sniffer) int {
	if _, dup := h.byName[s.Name()]; dup {
		panic(fmt.Sprintf("sniffer: duplicate name %q", s.Name()))
	}
	i := len(h.sniffers)
	h.sniffers = append(h.sniffers, s)
	h.byName[s.Name()] = i
	return i
}

// Len returns the number of registered sniffers.
func (h *Hub) Len() int { return len(h.sniffers) }

// Get returns sniffer i.
func (h *Hub) Get(i int) Sniffer { return h.sniffers[i] }

// Lookup finds a sniffer by name.
func (h *Hub) Lookup(name string) (Sniffer, bool) {
	if i, ok := h.byName[name]; ok {
		return h.sniffers[i], true
	}
	return nil, false
}

// CtrlLoad implements the read side of the control registers.
func (h *Hub) CtrlLoad(reg uint32) uint32 {
	if int(reg) >= len(h.sniffers) {
		return 0
	}
	if h.sniffers[reg].Enabled() {
		return 1
	}
	return 0
}

// CtrlStore implements the write side of the control registers.
func (h *Hub) CtrlStore(reg uint32, v uint32) {
	if int(reg) < len(h.sniffers) {
		h.sniffers[reg].SetEnabled(v != 0)
	}
}
