package emu

// This file aggregates the component state of a running platform into one
// checkpointable value. PlatformState is pure data (no references into the
// live platform), so internal/checkpoint can serialize it and a replay
// debugger can diff two of them field by field.

import (
	"fmt"
	"strings"

	"thermemu/internal/bus"
	"thermemu/internal/cpu"
	"thermemu/internal/isa"
	"thermemu/internal/mem"
	"thermemu/internal/noc"
	"thermemu/internal/vpcm"
)

// PlatformState is the complete checkpointable state of a Platform. Slices
// are indexed by core where per-core; Bus and Noc are mutually exclusive,
// mirroring the platform. Skip is kernel telemetry: it is saved and
// restored for observability continuity but excluded from EachRecord and
// DiffStates, because per-cycle stepping (StepOne) and the run-ahead kernel
// legitimately count skipped work differently while remaining
// architecturally bit-identical.
type PlatformState struct {
	Clock   vpcm.State
	Cores   []cpu.CoreState
	ICaches []mem.CacheState
	DCaches []mem.CacheState
	Ctrls   []mem.CtrlStats
	Privs   []mem.MemoryState
	Shared  mem.MemoryState
	Barrier mem.BarrierState
	Bus     *bus.State
	Noc     *noc.State
	Skip    SkipStats
}

// SaveState captures the full platform state. The platform must be
// quiescent (between Step/Run calls); window boundaries of the co-emulation
// loop satisfy this by construction.
func (p *Platform) SaveState() *PlatformState {
	s := &PlatformState{
		Clock:   p.VPCM.SaveState(),
		Shared:  p.Shared.SaveState(),
		Barrier: p.Barrier.SaveState(),
		Skip:    p.skip,
	}
	for i, c := range p.Cores {
		s.Cores = append(s.Cores, c.SaveState())
		ctl := p.Ctrls[i]
		s.Ctrls = append(s.Ctrls, ctl.Stats())
		if ic := ctl.ICache(); ic != nil {
			s.ICaches = append(s.ICaches, ic.SaveState())
		}
		if dc := ctl.DCache(); dc != nil {
			s.DCaches = append(s.DCaches, dc.SaveState())
		}
		s.Privs = append(s.Privs, p.Privs[i].SaveState())
	}
	if p.Bus != nil {
		b := p.Bus.SaveState()
		s.Bus = &b
	}
	if p.Net != nil {
		n := p.Net.SaveState()
		s.Noc = &n
	}
	return s
}

// RestoreState rewinds the platform to a saved state. Every component
// validates the state's shape against its live configuration, so restoring
// a checkpoint from a differently configured platform fails instead of
// silently resuming corrupt state.
func (p *Platform) RestoreState(s *PlatformState) error {
	if len(s.Cores) != len(p.Cores) {
		return fmt.Errorf("emu: checkpoint has %d cores, platform has %d", len(s.Cores), len(p.Cores))
	}
	nic, ndc := 0, 0
	for _, ctl := range p.Ctrls {
		if ctl.ICache() != nil {
			nic++
		}
		if ctl.DCache() != nil {
			ndc++
		}
	}
	switch {
	case len(s.ICaches) != nic:
		return fmt.Errorf("emu: checkpoint has %d icaches, platform has %d", len(s.ICaches), nic)
	case len(s.DCaches) != ndc:
		return fmt.Errorf("emu: checkpoint has %d dcaches, platform has %d", len(s.DCaches), ndc)
	case len(s.Ctrls) != len(p.Ctrls):
		return fmt.Errorf("emu: checkpoint has %d controllers, platform has %d", len(s.Ctrls), len(p.Ctrls))
	case len(s.Privs) != len(p.Privs):
		return fmt.Errorf("emu: checkpoint has %d private memories, platform has %d", len(s.Privs), len(p.Privs))
	case (s.Bus != nil) != (p.Bus != nil):
		return fmt.Errorf("emu: checkpoint and platform disagree on bus interconnect")
	case (s.Noc != nil) != (p.Net != nil):
		return fmt.Errorf("emu: checkpoint and platform disagree on NoC interconnect")
	}

	if err := p.VPCM.RestoreState(s.Clock); err != nil {
		return err
	}
	for i, c := range p.Cores {
		c.RestoreState(s.Cores[i])
		p.Ctrls[i].RestoreStats(s.Ctrls[i])
		if err := p.Privs[i].RestoreState(s.Privs[i]); err != nil {
			return err
		}
	}
	ic, dc := 0, 0
	for _, ctl := range p.Ctrls {
		if c := ctl.ICache(); c != nil {
			if err := c.RestoreState(s.ICaches[ic]); err != nil {
				return err
			}
			ic++
		}
		if c := ctl.DCache(); c != nil {
			if err := c.RestoreState(s.DCaches[dc]); err != nil {
				return err
			}
			dc++
		}
	}
	if err := p.Shared.RestoreState(s.Shared); err != nil {
		return err
	}
	if err := p.Barrier.RestoreState(s.Barrier); err != nil {
		return err
	}
	if s.Bus != nil {
		if err := p.Bus.RestoreState(*s.Bus); err != nil {
			return err
		}
	}
	if s.Noc != nil {
		if err := p.Net.RestoreState(*s.Noc); err != nil {
			return err
		}
	}
	p.skip = s.Skip
	return nil
}

// EachRecord enumerates the architecturally meaningful state as labelled
// (core, field, value) records in a canonical order. The enumeration
// deliberately excludes kernel telemetry (SkipStats) and wall-clock-derived
// frozen time, mirroring what the golden digest pins, and is the substrate
// DiffStates compares.
func (s *PlatformState) EachRecord(fn func(core int, field string, value uint64)) {
	fn(-1, "cycle", s.Clock.Cycle)
	fn(-1, "time_ps", s.Clock.TimePs)
	fn(-1, "freq_hz", s.Clock.VirtHz)
	fn(-1, "wall_ps", s.Clock.WallPs)
	var supp uint64
	for _, sc := range s.Clock.Suppression {
		supp += sc.Cycles
	}
	fn(-1, "suppression_cycles", supp)
	for i := range s.Cores {
		c := &s.Cores[i]
		fn(i, "pc", uint64(c.PC))
		for r := 0; r < isa.NumRegs; r++ {
			fn(i, "reg", uint64(r)<<32|uint64(c.Regs[r]))
		}
		fn(i, "stall", c.Stall)
		var halted uint64
		if c.Halt {
			halted = 1
		}
		fn(i, "halted", halted)
		fn(i, "mode", uint64(c.Mode))
		if c.HasFault {
			fn(i, "fault", hashString(c.FaultMsg))
		}
		fn(i, "instructions", c.Stats.Instructions)
		fn(i, "active_cycles", c.Stats.ActiveCycles)
		fn(i, "stall_cycles", c.Stats.StallCycles)
		fn(i, "idle_cycles", c.Stats.IdleCycles)
		fn(i, "loads", c.Stats.Loads)
		fn(i, "stores", c.Stats.Stores)
		fn(i, "branches", c.Stats.Branches)
		fn(i, "taken", c.Stats.Taken)
	}
	eachCache := func(name string, idx int, cs *mem.CacheState) {
		fn(idx, name+"_stamp", cs.Stamp)
		fn(idx, name+"_reads", cs.Stats.Reads)
		fn(idx, name+"_writes", cs.Stats.Writes)
		fn(idx, name+"_hits", cs.Stats.Hits)
		fn(idx, name+"_misses", cs.Stats.Misses)
		fn(idx, name+"_evictions", cs.Stats.Evictions)
		fn(idx, name+"_writebacks", cs.Stats.Writebacks)
		for li := range cs.Lines {
			ln := &cs.Lines[li]
			v := uint64(ln.Tag) << 2
			if ln.Valid {
				v |= 1
			}
			if ln.Dirty {
				v |= 2
			}
			fn(idx, fmt.Sprintf("%s_line%d", name, li), v)
		}
	}
	for i := range s.ICaches {
		eachCache("icache", i, &s.ICaches[i])
	}
	for i := range s.DCaches {
		eachCache("dcache", i, &s.DCaches[i])
	}
	for i := range s.Ctrls {
		c := &s.Ctrls[i]
		fn(i, "ctrl_fetches", c.Fetches)
		fn(i, "ctrl_priv_reads", c.PrivateReads)
		fn(i, "ctrl_priv_writes", c.PrivateWrits)
		fn(i, "ctrl_shared_reads", c.SharedReads)
		fn(i, "ctrl_shared_writes", c.SharedWrits)
		fn(i, "ctrl_device_ops", c.DeviceOps)
		fn(i, "ctrl_stall_cycles", c.StallCycles)
	}
	eachMem := func(name string, idx int, ms *mem.MemoryState) {
		fn(idx, name+"_reads", ms.Stats.Reads)
		fn(idx, name+"_writes", ms.Stats.Writes)
		for _, pg := range ms.Pages {
			fn(idx, fmt.Sprintf("%s@%08x", name, pg.Addr), hashBytes(pg.Data))
		}
	}
	for i := range s.Privs {
		eachMem("priv", i, &s.Privs[i])
	}
	eachMem("shared", -1, &s.Shared)
	fn(-1, "barrier_gen", uint64(s.Barrier.Gen))
	fn(-1, "barrier_arrivals", uint64(s.Barrier.Arrivals))
	if s.Bus != nil {
		b := s.Bus
		fn(-1, "bus_busy_until", b.BusyUntil)
		fn(-1, "bus_last_grant", uint64(int64(b.LastGrant)))
		fn(-1, "bus_transactions", b.Stats.Transactions)
		fn(-1, "bus_reads", b.Stats.Reads)
		fn(-1, "bus_writes", b.Stats.Writes)
		fn(-1, "bus_busy_cycles", b.Stats.BusyCycles)
		fn(-1, "bus_wait_cycles", b.Stats.WaitCycles)
		fn(-1, "bus_beats", b.Stats.BeatsCarried)
		fn(-1, "bus_transitions", b.Stats.Transitions)
	}
	if s.Noc != nil {
		n := s.Noc
		for li, v := range n.LinkBusy {
			fn(-1, fmt.Sprintf("noc_link%d_busy", li), v)
		}
		fn(-1, "noc_packets", n.Stats.Packets)
		fn(-1, "noc_flits", n.Stats.Flits)
		fn(-1, "noc_ocp_reads", n.Stats.OCPReads)
		fn(-1, "noc_ocp_writes", n.Stats.OCPWrites)
		fn(-1, "noc_wait_cycles", n.Stats.WaitCycles)
		fn(-1, "noc_hops", n.Stats.HopsTraveled)
		fn(-1, "noc_transitions", n.Stats.Transitions)
	}
}

// hashString/hashBytes mirror golden.HashString/HashBytes so this file does
// not pull the golden package into the platform's core path.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashString(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashBytes(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// StateDiff is one field where two platform states disagree.
type StateDiff struct {
	Core  int
	Field string
	A, B  uint64
}

// String renders the diff for reports.
func (d StateDiff) String() string {
	if d.Core < 0 {
		return fmt.Sprintf("%s: A=%#x B=%#x", d.Field, d.A, d.B)
	}
	return fmt.Sprintf("core %d %s: A=%#x B=%#x", d.Core, d.Field, d.A, d.B)
}

type stateRecord struct {
	core  int
	field string
	value uint64
}

// DiffStates compares two platform states record by record and returns
// every disagreement. An error means the two states do not even have the
// same shape (different configurations), so a field-level diff would be
// meaningless.
func DiffStates(a, b *PlatformState) ([]StateDiff, error) {
	var ra, rb []stateRecord
	a.EachRecord(func(core int, field string, value uint64) {
		ra = append(ra, stateRecord{core, field, value})
	})
	b.EachRecord(func(core int, field string, value uint64) {
		rb = append(rb, stateRecord{core, field, value})
	})
	if len(ra) != len(rb) {
		return nil, fmt.Errorf("emu: states have different shapes (%d vs %d records)", len(ra), len(rb))
	}
	var diffs []StateDiff
	for i := range ra {
		if ra[i].core != rb[i].core || ra[i].field != rb[i].field {
			return nil, fmt.Errorf("emu: states have different shapes at record %d (%d/%s vs %d/%s)",
				i, ra[i].core, ra[i].field, rb[i].core, rb[i].field)
		}
		if ra[i].value != rb[i].value {
			diffs = append(diffs, StateDiff{Core: ra[i].core, Field: ra[i].field, A: ra[i].value, B: rb[i].value})
		}
	}
	return diffs, nil
}

// Dump renders the state for replay-to-divergence reports: the clock, every
// core's architectural state and the memory footprint.
func (s *PlatformState) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d  t=%d ps  f=%d Hz\n", s.Clock.Cycle, s.Clock.TimePs, s.Clock.VirtHz)
	for i := range s.Cores {
		c := &s.Cores[i]
		fmt.Fprintf(&b, "core %d: pc=%#x mode=%d stall=%d halt=%v", i, c.PC, c.Mode, c.Stall, c.Halt)
		if c.HasFault {
			fmt.Fprintf(&b, " fault=%q", c.FaultMsg)
		}
		fmt.Fprintf(&b, " instr=%d\n", c.Stats.Instructions)
		for r := 0; r < isa.NumRegs; r++ {
			if r%8 == 0 {
				fmt.Fprintf(&b, "  r%02d:", r)
			}
			fmt.Fprintf(&b, " %08x", c.Regs[r])
			if r%8 == 7 || r == isa.NumRegs-1 {
				b.WriteByte('\n')
			}
		}
	}
	for i := range s.Privs {
		fmt.Fprintf(&b, "priv%d: %d pages\n", i, len(s.Privs[i].Pages))
	}
	fmt.Fprintf(&b, "shared: %d pages  barrier: gen=%d arrivals=%d\n",
		len(s.Shared.Pages), s.Barrier.Gen, s.Barrier.Arrivals)
	return b.String()
}
