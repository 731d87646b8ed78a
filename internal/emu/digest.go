package emu

// This file wires the golden-trace conformance machinery (internal/golden)
// into the platform: periodic statistics digests plus a full
// architectural-state digest, so any two runs — run-ahead vs per-cycle,
// across window sizes, or across commits via golden files — can be asserted
// bit-identical, and a journaled trace pinpoints the first divergent cycle,
// core and field when they are not.

import (
	"fmt"

	"thermemu/internal/golden"
	"thermemu/internal/isa"
	"thermemu/internal/mem"
)

// DigestSnapshot folds every counter of a statistics snapshot into tr.
// A nil trace is ignored, so callers can thread an optional trace through
// unconditionally.
func DigestSnapshot(tr *golden.Trace, s Snapshot) {
	if tr == nil {
		return
	}
	cy := s.Cycle
	tr.Record(cy, -1, "time_ps", s.TimePs)
	tr.Record(cy, -1, "freq_hz", s.FreqHz)
	for i := range s.Cores {
		c := s.Cores[i]
		tr.Record(cy, i, "instructions", c.Instructions)
		tr.Record(cy, i, "active_cycles", c.ActiveCycles)
		tr.Record(cy, i, "stall_cycles", c.StallCycles)
		tr.Record(cy, i, "idle_cycles", c.IdleCycles)
		tr.Record(cy, i, "loads", c.Loads)
		tr.Record(cy, i, "stores", c.Stores)
		tr.Record(cy, i, "branches", c.Branches)
		tr.Record(cy, i, "taken", c.Taken)
		tr.Record(cy, i, "paired", c.Paired)
	}
	for i := range s.ICaches {
		digestCache(tr, cy, i, &icacheFields, s.ICaches[i])
	}
	for i := range s.DCaches {
		digestCache(tr, cy, i, &dcacheFields, s.DCaches[i])
	}
	for i := range s.L2s {
		digestCache(tr, cy, i, &l2Fields, s.L2s[i])
	}
	for i := range s.Ctrls {
		c := s.Ctrls[i]
		tr.Record(cy, i, "ctrl_fetches", c.Fetches)
		tr.Record(cy, i, "ctrl_priv_reads", c.PrivateReads)
		tr.Record(cy, i, "ctrl_priv_writes", c.PrivateWrits)
		tr.Record(cy, i, "ctrl_shared_reads", c.SharedReads)
		tr.Record(cy, i, "ctrl_shared_writes", c.SharedWrits)
		tr.Record(cy, i, "ctrl_device_ops", c.DeviceOps)
		tr.Record(cy, i, "ctrl_stall_cycles", c.StallCycles)
	}
	tr.Record(cy, -1, "shared_reads", s.Shared.Reads)
	tr.Record(cy, -1, "shared_writes", s.Shared.Writes)
	if s.Bus != nil {
		b := s.Bus
		tr.Record(cy, -1, "bus_transactions", b.Transactions)
		tr.Record(cy, -1, "bus_reads", b.Reads)
		tr.Record(cy, -1, "bus_writes", b.Writes)
		tr.Record(cy, -1, "bus_busy_cycles", b.BusyCycles)
		tr.Record(cy, -1, "bus_wait_cycles", b.WaitCycles)
		tr.Record(cy, -1, "bus_beats", b.BeatsCarried)
		tr.Record(cy, -1, "bus_transitions", b.Transitions)
	}
	if s.Noc != nil {
		n := s.Noc
		tr.Record(cy, -1, "noc_packets", n.Packets)
		tr.Record(cy, -1, "noc_flits", n.Flits)
		tr.Record(cy, -1, "noc_ocp_reads", n.OCPReads)
		tr.Record(cy, -1, "noc_ocp_writes", n.OCPWrites)
		tr.Record(cy, -1, "noc_wait_cycles", n.WaitCycles)
		tr.Record(cy, -1, "noc_hops", n.HopsTraveled)
		tr.Record(cy, -1, "noc_transitions", n.Transitions)
	}
}

// cacheFields names the six digested counters of one cache level, in
// record order. Constant tables keep the per-window digest free of string
// building.
type cacheFields [6]string

var (
	icacheFields = cacheFields{"icache_reads", "icache_writes", "icache_hits",
		"icache_misses", "icache_evictions", "icache_writebacks"}
	dcacheFields = cacheFields{"dcache_reads", "dcache_writes", "dcache_hits",
		"dcache_misses", "dcache_evictions", "dcache_writebacks"}
	l2Fields = cacheFields{"l2_reads", "l2_writes", "l2_hits",
		"l2_misses", "l2_evictions", "l2_writebacks"}
)

func digestCache(tr *golden.Trace, cy uint64, core int, f *cacheFields, c mem.CacheStats) {
	tr.Record(cy, core, f[0], c.Reads)
	tr.Record(cy, core, f[1], c.Writes)
	tr.Record(cy, core, f[2], c.Hits)
	tr.Record(cy, core, f[3], c.Misses)
	tr.Record(cy, core, f[4], c.Evictions)
	tr.Record(cy, core, f[5], c.Writebacks)
}

// DigestInto folds the platform's full architectural state into tr: per-core
// registers, PC, halt/fault status, every touched private and shared memory
// page, barrier state, the virtual clock and a closing statistics snapshot.
// It is typically called once at end of run; periodic sampling uses
// DigestSnapshot.
func (p *Platform) DigestInto(tr *golden.Trace) {
	if tr == nil {
		return
	}
	cy := p.VPCM.Cycle()
	for i, c := range p.Cores {
		tr.Record(cy, i, "pc", uint64(c.PC()))
		for r := 0; r < isa.NumRegs; r++ {
			// Pack the register index into the value so one field name
			// covers the file without losing which register diverged.
			tr.Record(cy, i, "reg", uint64(r)<<32|uint64(c.Reg(uint8(r))))
		}
		var halted uint64
		if c.Halted() {
			halted = 1
		}
		tr.Record(cy, i, "halted", halted)
		if err := c.Fault(); err != nil {
			tr.Record(cy, i, "fault", golden.HashString(err.Error()))
		}
	}
	for i, m := range p.Privs {
		digestMemory(tr, cy, i, "priv", m)
	}
	digestMemory(tr, cy, -1, "shared", p.Shared)
	tr.Record(cy, -1, "barrier_gen", uint64(p.Barrier.Generation()))
	tr.Record(cy, -1, "barrier_arrivals", uint64(p.Barrier.Arrivals()))
	tr.Record(cy, -1, "suppression_cycles", p.VPCM.SuppressionCycles())
	// Frozen time is measured from the host wall clock (link congestion,
	// solver lag in the pipelined loop), so it varies run to run; the digest
	// pins only the emulation-derived physical time, which is deterministic.
	tr.Record(cy, -1, "wall_ps", p.VPCM.EmulationWallPs())
	DigestSnapshot(tr, p.Snapshot())
}

func digestMemory(tr *golden.Trace, cy uint64, core int, name string, m *mem.Memory) {
	m.EachPage(func(addr uint32, page []byte) {
		tr.Record(cy, core, fmt.Sprintf("%s@%08x", name, addr), golden.HashBytes(page))
	})
}

// RunDigest is Run with conformance sampling: it executes the kernel
// until every core halts or maxCycles elapse, folding a statistics snapshot
// into tr every `every` cycles (0 uses DefaultChunk) and the full
// architectural state at the end.
func (p *Platform) RunDigest(maxCycles, every uint64, tr *golden.Trace) (uint64, bool) {
	if every == 0 {
		every = DefaultChunk
	}
	for p.VPCM.Cycle() < maxCycles && !p.AllHalted() {
		n := every
		if left := maxCycles - p.VPCM.Cycle(); n > left {
			n = left
		}
		p.Step(n)
		DigestSnapshot(tr, p.Snapshot())
	}
	p.DigestInto(tr)
	return p.VPCM.Cycle(), p.AllHalted()
}
