// Package bus models the shared-bus interconnects of the emulated MPSoC:
// the two Xilinx buses the paper includes (OPB for general-purpose devices,
// PLB for fast memories and processors) and the paper's own configurable
// 32-bit data/address exploration bus with selectable bandwidth and
// arbitration policies (Section 3.3).
//
// A Bus implements mem.Interconnect: it converts a burst transaction into
// cycles of arbitration, address phase, target service time and data phase,
// while tracking contention through a busy-until horizon. Switching-activity
// counters feed the interconnect power model.
package bus

import "fmt"

// Arbitration selects the bus arbitration policy.
type Arbitration int

// Arbitration policies.
const (
	// RoundRobin grants masters in rotating order; re-arbitration after a
	// different master held the bus costs one extra cycle.
	RoundRobin Arbitration = iota
	// FixedPriority grants lower master indices first; under contention a
	// master waits one extra cycle per higher-priority master.
	FixedPriority
	// TDMA divides bus time into fixed slots, one per master; a
	// transaction must wait for the start of its own slot.
	TDMA
)

// String returns the policy name.
func (a Arbitration) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case FixedPriority:
		return "fixed-priority"
	case TDMA:
		return "tdma"
	}
	return fmt.Sprintf("arbitration(%d)", int(a))
}

// Config parameterises a bus instance.
type Config struct {
	Name        string
	WidthBits   int // data width: bandwidth knob of the custom bus
	AddrCycles  uint64
	ArbCycles   uint64
	Arbitration Arbitration
	Masters     int
	SlotCycles  uint64 // TDMA slot length
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.WidthBits <= 0 || c.WidthBits%8 != 0 {
		return fmt.Errorf("bus %s: width %d must be a positive multiple of 8", c.Name, c.WidthBits)
	}
	if c.Masters <= 0 {
		return fmt.Errorf("bus %s: needs at least one master", c.Name)
	}
	if c.Arbitration == TDMA && c.SlotCycles == 0 {
		return fmt.Errorf("bus %s: TDMA requires SlotCycles > 0", c.Name)
	}
	return nil
}

// OPB returns the configuration of the Xilinx On-chip Peripheral Bus class:
// 32-bit, round-robin, intended for general-purpose devices.
func OPB(masters int) Config {
	return Config{Name: "opb", WidthBits: 32, AddrCycles: 1, ArbCycles: 1,
		Arbitration: RoundRobin, Masters: masters}
}

// PLB returns the configuration of the Processor Local Bus class: 64-bit,
// fixed priority, intended for fast memories and processors.
func PLB(masters int) Config {
	return Config{Name: "plb", WidthBits: 64, AddrCycles: 1, ArbCycles: 1,
		Arbitration: FixedPriority, Masters: masters}
}

// Custom returns the paper's own configurable 32-bit exploration bus with
// the requested arbitration policy.
func Custom(masters int, arb Arbitration, widthBits int) Config {
	c := Config{Name: "custom", WidthBits: widthBits, AddrCycles: 1, ArbCycles: 1,
		Arbitration: arb, Masters: masters}
	if arb == TDMA {
		c.SlotCycles = 16
	}
	return c
}

// Stats holds the count-logging sniffer counters of a bus.
type Stats struct {
	Transactions uint64
	Reads        uint64
	Writes       uint64
	BusyCycles   uint64 // cycles the bus was held
	WaitCycles   uint64 // cycles initiators waited for grant
	BeatsCarried uint64 // data beats transferred
	Transitions  uint64 // estimated signal transitions (for power)
}

// Bus is a shared-bus timing model.
type Bus struct {
	cfg       Config
	busyUntil uint64
	lastGrant int
	stats     Stats
	perMaster []uint64 // wait cycles per master
}

// New builds a bus from cfg.
func New(cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{cfg: cfg, lastGrant: -1, perMaster: make([]uint64, cfg.Masters)}, nil
}

// MustNew is New for trusted configurations; it panics on error.
func MustNew(cfg Config) *Bus {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Name implements mem.Interconnect.
func (b *Bus) Name() string { return b.cfg.Name }

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// Stats returns the sniffer counters.
func (b *Bus) Stats() Stats { return b.stats }

// ResetStats zeroes the counters.
func (b *Bus) ResetStats() { b.stats = Stats{} }

// WaitCyclesOf returns the accumulated grant-wait cycles of one master.
func (b *Bus) WaitCyclesOf(master int) uint64 { return b.perMaster[master] }

// beats returns the number of data beats a burst of n bytes needs.
func (b *Bus) beats(bytes uint32) uint64 {
	bpb := uint32(b.cfg.WidthBits / 8)
	n := uint64((bytes + bpb - 1) / bpb)
	if n == 0 {
		n = 1
	}
	return n
}

// Transaction implements mem.Interconnect.
func (b *Bus) Transaction(initiator int, now uint64, bytes uint32, write bool, targetLatency uint64) uint64 {
	if initiator < 0 || initiator >= b.cfg.Masters {
		panic(fmt.Sprintf("bus %s: initiator %d out of range", b.cfg.Name, initiator))
	}
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	// Arbitration.
	arb := b.cfg.ArbCycles
	switch b.cfg.Arbitration {
	case FixedPriority:
		if b.busyUntil > now { // contended: lower priorities wait longer
			arb += uint64(initiator)
		}
	case RoundRobin:
		if b.lastGrant >= 0 && b.lastGrant != initiator {
			arb++ // re-arbitration to a different master
		}
	case TDMA:
		slot := b.cfg.SlotCycles
		frame := slot * uint64(b.cfg.Masters)
		pos := start % frame
		mySlot := uint64(initiator) * slot
		if pos > mySlot {
			start += frame - pos + mySlot
		} else {
			start += mySlot - pos
		}
		arb = 0
	}
	start += arb
	beats := b.beats(bytes)
	hold := b.cfg.AddrCycles + targetLatency + beats
	end := start + hold
	wait := start - now
	b.busyUntil = end
	b.lastGrant = initiator

	b.stats.Transactions++
	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
	b.stats.BusyCycles += hold
	b.stats.WaitCycles += wait
	b.perMaster[initiator] += wait
	b.stats.BeatsCarried += beats
	// Average-case switching estimate: half the data wires plus the
	// address wires toggle per beat.
	b.stats.Transitions += beats * uint64(b.cfg.WidthBits/2+16)
	return end - now
}

// Utilisation returns the fraction of cycles the bus was held over the
// given elapsed cycle count.
func (b *Bus) Utilisation(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	u := float64(b.stats.BusyCycles) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
