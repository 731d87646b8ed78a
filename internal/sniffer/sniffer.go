// Package sniffer implements the statistics-extraction subsystem of the
// emulation framework (Section 4 of the DAC'06 paper): HW sniffers that
// transparently monitor signals of the memory controllers and the external
// pinout of emulated components, a BRAM ring buffer where extracted
// statistics are stored, and memory-mapped control registers so software
// running on the emulated cores can de/activate sniffers at run time.
//
// Two sniffer types are provided, mirroring the paper:
//
//   - count-logging sniffers keep O(1) counters of switching activity and
//     high-level events (cache misses, bus transactions, memory accesses);
//     an effectively unlimited number can be attached without slowing the
//     emulation;
//   - event-logging sniffers exhaustively log every event into the BRAM
//     buffer, which the Ethernet dispatcher drains; when the buffer fills,
//     the congestion callback asks the VPCM to freeze the virtual clock.
package sniffer

import (
	"fmt"
	"sort"
)

// EventKind classifies a logged platform event.
type EventKind uint8

// Event kinds.
const (
	EvFetch EventKind = iota
	EvMemRead
	EvMemWrite
	EvCacheMiss
	EvBusTxn
	EvNocPacket
	EvStateChange
	EvCustom
)

// String returns the kind name.
func (k EventKind) String() string {
	names := [...]string{"fetch", "mem-read", "mem-write", "cache-miss",
		"bus-txn", "noc-packet", "state-change", "custom"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one exhaustively-logged platform event.
type Event struct {
	Cycle  uint64
	Source uint16 // index of the monitored component
	Kind   EventKind
	Addr   uint32
	Info   uint32
}

// Ring is the BRAM buffer where sniffers store extracted statistics before
// the Ethernet dispatcher sends them to the host. The backing array is
// allocated on the first Push or RestoreState, so platforms that never log
// events pay nothing for it.
type Ring struct {
	buf  []Event
	size int
	head int
	n    int
}

// NewRing creates a buffer holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("sniffer: ring capacity must be positive")
	}
	return &Ring{size: capacity}
}

// Cap returns the buffer capacity.
func (r *Ring) Cap() int { return r.size }

// Len returns the number of buffered events.
func (r *Ring) Len() int { return r.n }

// Full reports whether the buffer cannot accept another event.
func (r *Ring) Full() bool { return r.n == r.size }

// alloc materialises the backing array.
func (r *Ring) alloc() {
	if r.buf == nil {
		r.buf = make([]Event, r.size)
	}
}

// Push appends an event, reporting false when the buffer is full.
func (r *Ring) Push(ev Event) bool {
	if r.Full() {
		return false
	}
	r.alloc()
	r.buf[(r.head+r.n)%r.size] = ev
	r.n++
	return true
}

// Pop removes and returns the oldest event.
func (r *Ring) Pop() (Event, bool) {
	if r.n == 0 {
		return Event{}, false
	}
	ev := r.buf[r.head]
	r.head = (r.head + 1) % r.size
	r.n--
	return ev, true
}

// Drain removes up to max events into out, returning the count.
func (r *Ring) Drain(out []Event) int {
	k := 0
	for k < len(out) {
		ev, ok := r.Pop()
		if !ok {
			break
		}
		out[k] = ev
		k++
	}
	return k
}

// Sniffer is the common control surface of both sniffer types, matching the
// paper's basic sniffer skeleton.
type Sniffer interface {
	Name() string
	Enabled() bool
	SetEnabled(bool)
}

// Counter is one named statistic of a count-logging sniffer.
type Counter struct {
	Name  string
	Value uint64
}

// CountSniffer counts switching activity and high-level events. Counters
// are registered once and addressed by dense index, so the per-event cost
// is a single array increment — the property that lets the paper attach
// "practically an unlimited number" of them without slowing emulation.
type CountSniffer struct {
	name    string
	enabled bool
	values  []uint64
	names   []string
	index   map[string]int
}

// NewCountSniffer creates an enabled count-logging sniffer.
func NewCountSniffer(name string) *CountSniffer {
	return &CountSniffer{name: name, enabled: true, index: make(map[string]int)}
}

// Name implements Sniffer.
func (s *CountSniffer) Name() string { return s.name }

// Enabled implements Sniffer.
func (s *CountSniffer) Enabled() bool { return s.enabled }

// SetEnabled implements Sniffer.
func (s *CountSniffer) SetEnabled(on bool) { s.enabled = on }

// Register adds a counter and returns its dense index.
func (s *CountSniffer) Register(counter string) int {
	if i, ok := s.index[counter]; ok {
		return i
	}
	i := len(s.values)
	s.values = append(s.values, 0)
	s.names = append(s.names, counter)
	s.index[counter] = i
	return i
}

// Add increments counter i by delta (no-op while disabled).
func (s *CountSniffer) Add(i int, delta uint64) {
	if s.enabled {
		s.values[i] += delta
	}
}

// Set overwrites counter i (used for gauge-style statistics).
func (s *CountSniffer) Set(i int, v uint64) {
	if s.enabled {
		s.values[i] = v
	}
}

// Value returns the current value of counter i.
func (s *CountSniffer) Value(i int) uint64 { return s.values[i] }

// Snapshot returns all counters sorted by name.
func (s *CountSniffer) Snapshot() []Counter {
	out := make([]Counter, len(s.values))
	for i := range s.values {
		out[i] = Counter{Name: s.names[i], Value: s.values[i]}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Reset zeroes every counter.
func (s *CountSniffer) Reset() {
	for i := range s.values {
		s.values[i] = 0
	}
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

// EventSniffer exhaustively logs events into the shared BRAM ring.
type EventSniffer struct {
	name     string
	enabled  bool
	source   uint16
	ring     *Ring
	onFull   func() bool // asks the dispatcher to drain; reports success
	Logged   uint64
	Dropped  uint64
	FullHits uint64
}

// NewEventSniffer creates an enabled event-logging sniffer writing to ring
// with the given source id. onFull is invoked when the ring is full; it
// should drain the ring (e.g. by pumping the Ethernet dispatcher, possibly
// freezing the virtual clock meanwhile) and report whether space was made.
func NewEventSniffer(name string, source uint16, ring *Ring, onFull func() bool) *EventSniffer {
	return &EventSniffer{name: name, enabled: true, source: source, ring: ring, onFull: onFull}
}

// Name implements Sniffer.
func (s *EventSniffer) Name() string { return s.name }

// Enabled implements Sniffer.
func (s *EventSniffer) Enabled() bool { return s.enabled }

// SetEnabled implements Sniffer.
func (s *EventSniffer) SetEnabled(on bool) { s.enabled = on }

// Log records one event.
func (s *EventSniffer) Log(cycle uint64, kind EventKind, addr, info uint32) {
	if !s.enabled {
		return
	}
	ev := Event{Cycle: cycle, Source: s.source, Kind: kind, Addr: addr, Info: info}
	if s.ring.Push(ev) {
		s.Logged++
		return
	}
	s.FullHits++
	if s.onFull != nil && s.onFull() && s.ring.Push(ev) {
		s.Logged++
		return
	}
	s.Dropped++
}

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
