package checkpoint

// Serialization of emu.PlatformState and LoopState. Field order here IS the
// format: it must only change together with a Version bump.

import (
	"thermemu/internal/bus"
	"thermemu/internal/cpu"
	"thermemu/internal/emu"
	"thermemu/internal/mem"
	"thermemu/internal/noc"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/vpcm"
)

func encodeClock(w *writer, s *vpcm.State) {
	w.u64(s.PhysHz)
	w.u64(s.VirtHz)
	w.u64(s.Cycle)
	w.u64(s.TimePs)
	w.u64(s.WallPs)
	w.u64(s.FrozenPs)
	w.u32(uint32(len(s.Suppression)))
	for _, sc := range s.Suppression {
		w.str(sc.Source)
		w.u64(sc.Cycles)
	}
	w.u32(uint32(len(s.FrozenBySrc)))
	for _, sp := range s.FrozenBySrc {
		w.str(sp.Source)
		w.u64(sp.Ps)
	}
	w.u32(uint32(len(s.History)))
	for _, h := range s.History {
		w.u64(h.Cycle)
		w.u64(h.TimePs)
		w.u64(h.Hz)
	}
}

func decodeClock(r *reader) vpcm.State {
	var s vpcm.State
	s.PhysHz = r.u64()
	s.VirtHz = r.u64()
	s.Cycle = r.u64()
	s.TimePs = r.u64()
	s.WallPs = r.u64()
	s.FrozenPs = r.u64()
	for i, n := 0, r.count(5); i < n && r.err == nil; i++ {
		src := r.str()
		s.Suppression = append(s.Suppression, vpcm.SourceCycles{Source: src, Cycles: r.u64()})
	}
	for i, n := 0, r.count(5); i < n && r.err == nil; i++ {
		src := r.str()
		s.FrozenBySrc = append(s.FrozenBySrc, vpcm.SourcePs{Source: src, Ps: r.u64()})
	}
	for i, n := 0, r.count(24); i < n && r.err == nil; i++ {
		s.History = append(s.History, vpcm.FreqChange{Cycle: r.u64(), TimePs: r.u64(), Hz: r.u64()})
	}
	return s
}

func encodeCore(w *writer, c *cpu.CoreState) {
	for r := 0; r < numRegs; r++ {
		w.u32(c.Regs[r])
	}
	w.u32(c.PC)
	w.u64(c.Stall)
	w.bool(c.Halt)
	w.bool(c.HasFault)
	w.str(c.FaultMsg)
	w.u8(uint8(c.Mode))
	w.u64(c.Stats.Instructions)
	w.u64(c.Stats.ActiveCycles)
	w.u64(c.Stats.StallCycles)
	w.u64(c.Stats.IdleCycles)
	w.u64(c.Stats.Loads)
	w.u64(c.Stats.Stores)
	w.u64(c.Stats.Branches)
	w.u64(c.Stats.Taken)
	w.u64(0) // retired dual-issue pair counter
}

func decodeCore(r *reader) cpu.CoreState {
	var c cpu.CoreState
	for i := 0; i < numRegs; i++ {
		c.Regs[i] = r.u32()
	}
	c.PC = r.u32()
	c.Stall = r.u64()
	c.Halt = r.bool()
	c.HasFault = r.bool()
	c.FaultMsg = r.str()
	c.Mode = cpu.State(r.u8())
	c.Stats.Instructions = r.u64()
	c.Stats.ActiveCycles = r.u64()
	c.Stats.StallCycles = r.u64()
	c.Stats.IdleCycles = r.u64()
	c.Stats.Loads = r.u64()
	c.Stats.Stores = r.u64()
	c.Stats.Branches = r.u64()
	c.Stats.Taken = r.u64()
	r.retired("dual-issue pair counter", r.u64())
	return c
}

func encodeCache(w *writer, c *mem.CacheState) {
	w.u32(uint32(len(c.Lines)))
	for _, ln := range c.Lines {
		w.u32(ln.Tag)
		w.bool(ln.Valid)
		w.bool(ln.Dirty)
		w.u64(ln.LRU)
	}
	w.u64(c.Stamp)
	w.u64(c.Stats.Reads)
	w.u64(c.Stats.Writes)
	w.u64(c.Stats.Hits)
	w.u64(c.Stats.Misses)
	w.u64(c.Stats.Evictions)
	w.u64(c.Stats.Writebacks)
	w.bool(true) // retired cache-enable flag: a cache is on while attached
}

func decodeCache(r *reader) mem.CacheState {
	var c mem.CacheState
	for i, n := 0, r.count(14); i < n && r.err == nil; i++ {
		c.Lines = append(c.Lines, mem.CacheLineState{
			Tag: r.u32(), Valid: r.bool(), Dirty: r.bool(), LRU: r.u64()})
	}
	c.Stamp = r.u64()
	c.Stats.Reads = r.u64()
	c.Stats.Writes = r.u64()
	c.Stats.Hits = r.u64()
	c.Stats.Misses = r.u64()
	c.Stats.Evictions = r.u64()
	c.Stats.Writebacks = r.u64()
	if !r.bool() && r.err == nil {
		r.fail("cache-enable flag is 0, only 1 (enabled) is supported")
	}
	return c
}

func encodeCtrl(w *writer, c *mem.CtrlStats) {
	w.u64(c.Fetches)
	w.u64(c.PrivateReads)
	w.u64(c.PrivateWrits)
	w.u64(c.SharedReads)
	w.u64(c.SharedWrits)
	w.u64(c.DeviceOps)
	w.u64(c.StallCycles)
}

func decodeCtrl(r *reader) mem.CtrlStats {
	var c mem.CtrlStats
	c.Fetches = r.u64()
	c.PrivateReads = r.u64()
	c.PrivateWrits = r.u64()
	c.SharedReads = r.u64()
	c.SharedWrits = r.u64()
	c.DeviceOps = r.u64()
	c.StallCycles = r.u64()
	return c
}

func encodeMemory(w *writer, m *mem.MemoryState) {
	w.u32(uint32(len(m.Pages)))
	for _, pg := range m.Pages {
		w.u32(pg.Addr)
		w.bytes(pg.Data)
	}
	w.u64(m.Stats.Reads)
	w.u64(m.Stats.Writes)
}

func decodeMemory(r *reader) mem.MemoryState {
	var m mem.MemoryState
	for i, n := 0, r.count(8); i < n && r.err == nil; i++ {
		addr := r.u32()
		m.Pages = append(m.Pages, mem.PageState{Addr: addr, Data: r.bytes()})
	}
	m.Stats.Reads = r.u64()
	m.Stats.Writes = r.u64()
	return m
}

func encodeU64s(w *writer, vs []uint64) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u64(v)
	}
}

func decodeU64s(r *reader) []uint64 {
	n := r.count(8)
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.u64())
	}
	return out
}

func encodeF64s(w *writer, vs []float64) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}

func decodeF64s(r *reader) []float64 {
	n := r.count(8)
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]float64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.f64())
	}
	return out
}

func encodePlatform(w *writer, s *emu.PlatformState) {
	if s == nil {
		s = &emu.PlatformState{}
	}
	clock := s.Clock
	encodeClock(w, &clock)
	w.u32(uint32(len(s.Cores)))
	for i := range s.Cores {
		encodeCore(w, &s.Cores[i])
	}
	w.u32(uint32(len(s.ICaches)))
	for i := range s.ICaches {
		encodeCache(w, &s.ICaches[i])
	}
	w.u32(uint32(len(s.DCaches)))
	for i := range s.DCaches {
		encodeCache(w, &s.DCaches[i])
	}
	w.u32(0) // retired per-core L2 count
	w.u32(uint32(len(s.Ctrls)))
	for i := range s.Ctrls {
		encodeCtrl(w, &s.Ctrls[i])
	}
	w.u32(uint32(len(s.Privs)))
	for i := range s.Privs {
		encodeMemory(w, &s.Privs[i])
	}
	w.u32(0) // retired per-core scratchpad count
	encodeMemory(w, &s.Shared)
	w.i64(int64(s.Barrier.Arrivals))
	w.u32(s.Barrier.Gen)
	w.bool(s.Bus != nil)
	if s.Bus != nil {
		w.u64(s.Bus.BusyUntil)
		w.i64(int64(s.Bus.LastGrant))
		w.u64(s.Bus.Stats.Transactions)
		w.u64(s.Bus.Stats.Reads)
		w.u64(s.Bus.Stats.Writes)
		w.u64(s.Bus.Stats.BusyCycles)
		w.u64(s.Bus.Stats.WaitCycles)
		w.u64(s.Bus.Stats.BeatsCarried)
		w.u64(s.Bus.Stats.Transitions)
		encodeU64s(w, s.Bus.PerMaster)
	}
	w.bool(s.Noc != nil)
	if s.Noc != nil {
		encodeU64s(w, s.Noc.LinkBusy)
		encodeU64s(w, s.Noc.LinkUse)
		w.u64(s.Noc.Stats.Packets)
		w.u64(s.Noc.Stats.Flits)
		w.u64(s.Noc.Stats.OCPReads)
		w.u64(s.Noc.Stats.OCPWrites)
		w.u64(s.Noc.Stats.WaitCycles)
		w.u64(s.Noc.Stats.HopsTraveled)
		w.u64(s.Noc.Stats.Transitions)
	}
	w.u64(s.Skip.CoreSteps) // retired event-cycle counter, which equalled CoreSteps
	w.u64(s.Skip.SkippedCycles)
	w.u64(s.Skip.CoreSteps)
	w.u32(0) // retired activity-sniffer count
	w.u32(0) // retired event-sniffer count
	w.u32(0) // retired ring-event count
}

func decodePlatform(r *reader) *emu.PlatformState {
	s := &emu.PlatformState{}
	s.Clock = decodeClock(r)
	for i, n := 0, r.count(4*numRegs+31); i < n && r.err == nil; i++ {
		s.Cores = append(s.Cores, decodeCore(r))
	}
	for i, n := 0, r.count(59); i < n && r.err == nil; i++ {
		s.ICaches = append(s.ICaches, decodeCache(r))
	}
	for i, n := 0, r.count(59); i < n && r.err == nil; i++ {
		s.DCaches = append(s.DCaches, decodeCache(r))
	}
	r.retired("L2 count", uint64(r.u32()))
	for i, n := 0, r.count(56); i < n && r.err == nil; i++ {
		s.Ctrls = append(s.Ctrls, decodeCtrl(r))
	}
	for i, n := 0, r.count(20); i < n && r.err == nil; i++ {
		s.Privs = append(s.Privs, decodeMemory(r))
	}
	r.retired("scratchpad count", uint64(r.u32()))
	s.Shared = decodeMemory(r)
	s.Barrier.Arrivals = int(r.i64())
	s.Barrier.Gen = r.u32()
	if r.bool() {
		b := &bus.State{}
		b.BusyUntil = r.u64()
		b.LastGrant = int(r.i64())
		b.Stats.Transactions = r.u64()
		b.Stats.Reads = r.u64()
		b.Stats.Writes = r.u64()
		b.Stats.BusyCycles = r.u64()
		b.Stats.WaitCycles = r.u64()
		b.Stats.BeatsCarried = r.u64()
		b.Stats.Transitions = r.u64()
		b.PerMaster = decodeU64s(r)
		s.Bus = b
	}
	if r.bool() {
		n := &noc.State{}
		n.LinkBusy = decodeU64s(r)
		n.LinkUse = decodeU64s(r)
		n.Stats.Packets = r.u64()
		n.Stats.Flits = r.u64()
		n.Stats.OCPReads = r.u64()
		n.Stats.OCPWrites = r.u64()
		n.Stats.WaitCycles = r.u64()
		n.Stats.HopsTraveled = r.u64()
		n.Stats.Transitions = r.u64()
		s.Noc = n
	}
	eventCycles := r.u64()
	s.Skip.SkippedCycles = r.u64()
	s.Skip.CoreSteps = r.u64()
	if r.err == nil && eventCycles != s.Skip.CoreSteps {
		r.fail("event-cycle counter is %d, only the core-step count %d is supported", eventCycles, s.Skip.CoreSteps)
	}
	r.retired("activity-sniffer count", uint64(r.u32()))
	r.retired("event-sniffer count", uint64(r.u32()))
	r.retired("ring-event count", uint64(r.u32()))
	return s
}

func encodeLoop(w *writer, l *LoopState) {
	w.bool(l.Thermal != nil)
	if l.Thermal != nil {
		encodeF64s(w, l.Thermal.T)
		encodeF64s(w, l.Thermal.TAtK)
		encodeF64s(w, l.Thermal.Pw)
		w.f64(l.Thermal.Time)
	}
	w.bool(l.Policy != nil)
	if l.Policy != nil {
		w.bool(l.Policy.Throttled)
		w.u64(l.Policy.LastFreqHz)
		w.i64(int64(l.Policy.Switches))
	}
	encodeF64s(w, l.CompTemps)
	w.f64(l.MaxTempK)
}

func decodeLoop(r *reader) *LoopState {
	l := &LoopState{}
	if r.bool() {
		t := &thermal.ModelState{}
		t.T = decodeF64s(r)
		t.TAtK = decodeF64s(r)
		t.Pw = decodeF64s(r)
		t.Time = r.f64()
		l.Thermal = t
	}
	if r.bool() {
		p := &tm.PolicyState{}
		p.Throttled = r.bool()
		p.LastFreqHz = r.u64()
		p.Switches = int(r.i64())
		l.Policy = p
	}
	l.CompTemps = decodeF64s(r)
	l.MaxTempK = r.f64()
	return l
}
