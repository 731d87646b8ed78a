// Package emu composes the emulated MPSoC platform of Section 3: processing
// cores, per-core memory controllers with configurable I/D caches, private
// memories, one shared main memory reached through a configurable
// interconnect (OPB/PLB/custom bus or an Xpipes-style NoC), the statistics
// extraction subsystem, and the VPCM virtual clock.
//
// The platform's fast kernel stands in for the FPGA fabric: every emulated
// cycle is a direct-dispatch step over the cores, and all statistics are
// O(1) counters, so — like the HW emulator of the paper — adding monitored
// components costs essentially nothing. Contrast with package mparm, which
// wraps the same platform in a signal-level evaluate/update kernel to model
// a cycle-accurate SW simulator.
package emu

import (
	"fmt"
	"slices"

	"thermemu/internal/asm"
	"thermemu/internal/bus"
	"thermemu/internal/cpu"
	"thermemu/internal/mem"
	"thermemu/internal/noc"
	"thermemu/internal/vpcm"
	"thermemu/internal/workloads"
)

// Address-map constants of the emulated platform. The memory controller
// routes each range per Section 3.2. SniffBase is where the paper maps the
// sniffer control registers (Section 4.1); every statistic here is an
// always-on component counter, so the range is a device that reads 0 and
// ignores stores.
const (
	PrivBase    = 0x0000_0000
	SharedBase  = 0x1000_0000
	BarrierBase = 0x2000_0000
	SniffBase   = 0x2100_0000
	InfoBase    = 0x2200_0000
)

// MaxPrivKB and MaxSharedKB bound the memory sizes to the address space
// between a memory's base and the next range's: 256 MiB each.
const (
	MaxPrivKB   = (SharedBase - PrivBase) / 1024
	MaxSharedKB = (BarrierBase - SharedBase) / 1024
)

// MaxFreqHz bounds the virtual and physical clocks: 1 THz is the fastest
// clock whose period is a whole picosecond, the VPCM's time unit.
const MaxFreqHz uint64 = 1e12

// ICKind selects the interconnect family.
type ICKind int

// Interconnect kinds.
const (
	ICBusOPB ICKind = iota
	ICBusPLB
	ICBusCustom
	ICNoC
)

// String returns the kind name.
func (k ICKind) String() string {
	switch k {
	case ICBusOPB:
		return "opb"
	case ICBusPLB:
		return "plb"
	case ICBusCustom:
		return "custom-bus"
	case ICNoC:
		return "noc"
	}
	return fmt.Sprintf("ic(%d)", int(k))
}

// NoCSpec instantiates an Xpipes-style NoC for the platform.
type NoCSpec struct {
	Topo      *noc.Topology
	Cfg       noc.Config
	MemSwitch int // switch hosting the shared memory's network interface
}

// Table3NoC returns the NoC of the paper's Table 3 exploration: two 32-bit
// switches with four I/O channels and 3-flit buffers; cores attach two per
// switch and the shared memory sits on switch 1.
func Table3NoC(cores int) *NoCSpec {
	topo := &noc.Topology{Name: "table3-2sw", Switches: 2,
		Links:           []noc.Link{{From: 0, To: 1}, {From: 1, To: 0}},
		InitiatorSwitch: map[int]int{}}
	for c := 0; c < cores; c++ {
		topo.Attach(c, c%2)
	}
	return &NoCSpec{Topo: topo, Cfg: noc.DefaultConfig(), MemSwitch: 1}
}

// Fig6NoC returns the NoC of the Figure 6 thermal experiment: four switches
// in a ring, one core per switch, shared memory on switch 0.
func Fig6NoC(cores int) *NoCSpec {
	topo := noc.Ring(4)
	for c := 0; c < cores; c++ {
		topo.Attach(c, c%4)
	}
	return &NoCSpec{Topo: topo, Cfg: noc.DefaultConfig(), MemSwitch: 0}
}

// Config parameterises a platform instance.
type Config struct {
	Cores    int
	CoreKind cpu.Kind
	// CoreKinds optionally overrides CoreKind per core, for heterogeneous
	// platforms like the paper's Table 3 design (one PowerPC405 hard-core
	// plus three Microblaze soft-cores). Entries beyond its length use
	// CoreKind.
	CoreKinds []cpu.Kind
	FreqHz    uint64 // virtual platform clock
	PhysHz    uint64 // FPGA oscillator (paper: 100 MHz)

	ICache *mem.CacheConfig // nil = uncached fetch path
	DCache *mem.CacheConfig // nil = uncached data path

	PrivKB          int
	PrivLatency     uint64
	PrivPhysLatency uint64 // backing-device latency (BRAM = same, DDR = higher)

	SharedKB          int
	SharedLatency     uint64
	SharedPhysLatency uint64
	SharedCacheable   bool

	IC  ICKind
	Bus *bus.Config // overrides the preset when non-nil (ICBus* only)
	NoC *NoCSpec    // required for ICNoC
}

// DefaultConfig mirrors the Table 3 exploration platform: N cores with 4 KB
// I/D caches, 16 KB private memory each, a 1 MB shared main memory and the
// OPB bus, clocked at 100 MHz. Use Table3Cores for the paper's exact
// heterogeneous core mix.
func DefaultConfig(cores int) Config {
	ic := &mem.CacheConfig{Name: "icache", SizeBytes: 4 * 1024, LineBytes: 16, Assoc: 1, HitLatency: 0}
	dc := &mem.CacheConfig{Name: "dcache", SizeBytes: 4 * 1024, LineBytes: 16, Assoc: 2, HitLatency: 0}
	return Config{
		Cores: cores, CoreKind: cpu.Microblaze,
		FreqHz: 100e6, PhysHz: 100e6,
		ICache: ic, DCache: dc,
		PrivKB: 64, PrivLatency: 1, PrivPhysLatency: 1,
		SharedKB: 1024, SharedLatency: 6, SharedPhysLatency: 6,
		IC: ICBusOPB,
	}
}

// Table3Cores returns the paper's Table 3 core mix for n cores: one
// PowerPC405 hard-core and n-1 Microblaze soft-cores.
func Table3Cores(n int) []cpu.Kind {
	kinds := make([]cpu.Kind, n)
	kinds[0] = cpu.PPC405
	for i := 1; i < n; i++ {
		kinds[i] = cpu.Microblaze
	}
	return kinds
}

// Fig6Config mirrors the Figure 6 thermal system: four RISC-32 cores with
// 8 kB direct-mapped I/D caches, 32 kB cacheable private memories, a 32 kB
// shared memory and a four-switch NoC, emulated at 500 MHz on the 100 MHz
// fabric.
func Fig6Config() Config {
	cfg := DefaultConfig(4)
	cfg.FreqHz = 500e6
	cfg.ICache = &mem.CacheConfig{Name: "icache", SizeBytes: 8 * 1024, LineBytes: 16, Assoc: 1, HitLatency: 0}
	cfg.DCache = &mem.CacheConfig{Name: "dcache", SizeBytes: 8 * 1024, LineBytes: 16, Assoc: 1, HitLatency: 0}
	cfg.PrivKB = 32
	cfg.SharedKB = 32
	cfg.IC = ICNoC
	cfg.NoC = Fig6NoC(4)
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("emu: need at least one core")
	}
	if c.FreqHz == 0 || c.PhysHz == 0 {
		return fmt.Errorf("emu: frequencies must be positive")
	}
	if c.FreqHz > MaxFreqHz || c.PhysHz > MaxFreqHz {
		return fmt.Errorf("emu: frequencies must be at most %d Hz, got %d and %d (virtual, physical)", MaxFreqHz, c.FreqHz, c.PhysHz)
	}
	if c.PrivKB <= 0 || c.SharedKB <= 0 {
		return fmt.Errorf("emu: memory sizes must be positive")
	}
	if c.PrivKB > MaxPrivKB {
		return fmt.Errorf("emu: private memory of %d KB overruns the shared range (max %d KB)", c.PrivKB, MaxPrivKB)
	}
	if c.SharedKB > MaxSharedKB {
		return fmt.Errorf("emu: shared memory of %d KB overruns the barrier range (max %d KB)", c.SharedKB, MaxSharedKB)
	}
	if c.IC == ICNoC && c.NoC == nil {
		return fmt.Errorf("emu: NoC interconnect requires a NoCSpec")
	}
	for _, cc := range []*mem.CacheConfig{c.ICache, c.DCache} {
		if cc != nil {
			if err := cc.Validate(); err != nil {
				return fmt.Errorf("emu: %w", err)
			}
		}
	}
	return nil
}

// Platform is one instantiated MPSoC emulation.
type Platform struct {
	Cfg     Config
	VPCM    *vpcm.VPCM
	Cores   []*cpu.Core
	Ctrls   []*mem.Controller
	Privs   []*mem.Memory
	Shared  *mem.Memory
	Bus     *bus.Bus     // nil for NoC platforms
	Net     *noc.Network // nil for bus platforms
	Barrier *mem.Barrier

	// Skip-ahead kernel state: per-core wake cycles and idle-span origins
	// (reused across spans to keep Step/Run allocation-free) plus telemetry.
	wake     []uint64
	idleFrom []uint64
	skip     SkipStats
}

// New builds a platform from cfg.
func New(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{
		Cfg:  cfg,
		VPCM: vpcm.New(cfg.PhysHz, cfg.FreqHz),
	}

	p.Shared = mem.NewMemory("shared", uint32(cfg.SharedKB)*1024, cfg.SharedLatency)
	if cfg.SharedPhysLatency > cfg.SharedLatency {
		p.Shared.SetPhysicalLatency(cfg.SharedPhysLatency, p.VPCM)
	}
	p.Barrier = mem.NewBarrier("barrier", cfg.Cores, 1)
	sniffctl := mem.NewRegDevice("sniffctl", 64, 1, nil, nil)

	var ic mem.Interconnect
	switch cfg.IC {
	case ICBusOPB, ICBusPLB, ICBusCustom:
		bc := bus.OPB(cfg.Cores)
		if cfg.IC == ICBusPLB {
			bc = bus.PLB(cfg.Cores)
		} else if cfg.IC == ICBusCustom {
			bc = bus.Custom(cfg.Cores, bus.RoundRobin, 32)
		}
		if cfg.Bus != nil {
			bc = *cfg.Bus
		}
		b, err := bus.New(bc)
		if err != nil {
			return nil, err
		}
		p.Bus = b
		ic = b
	case ICNoC:
		n, err := noc.New(cfg.NoC.Topo, cfg.NoC.Cfg)
		if err != nil {
			return nil, err
		}
		p.Net = n
		ic = n.TargetPort(cfg.NoC.MemSwitch)
	}

	for i := 0; i < cfg.Cores; i++ {
		ctl := mem.NewController(fmt.Sprintf("memctl%d", i), i)
		priv := mem.NewMemory(fmt.Sprintf("priv%d", i), uint32(cfg.PrivKB)*1024, cfg.PrivLatency)
		if cfg.PrivPhysLatency > cfg.PrivLatency {
			priv.SetPhysicalLatency(cfg.PrivPhysLatency, p.VPCM)
		}
		if err := ctl.AddRange(mem.Range{Name: "priv", Base: PrivBase, Target: priv,
			Cacheable: true, Kind: mem.KindPrivate}); err != nil {
			return nil, err
		}
		shared := &mem.Routed{Under: p.Shared, IC: ic, Initiator: i}
		if err := ctl.AddRange(mem.Range{Name: "shared", Base: SharedBase, Target: shared,
			Cacheable: cfg.SharedCacheable, Kind: mem.KindShared}); err != nil {
			return nil, err
		}
		if err := ctl.AddRange(mem.Range{Name: "barrier", Base: BarrierBase,
			Target: p.Barrier, Kind: mem.KindDevice}); err != nil {
			return nil, err
		}
		if err := ctl.AddRange(mem.Range{Name: "sniffctl", Base: SniffBase,
			Target: sniffctl, Kind: mem.KindDevice}); err != nil {
			return nil, err
		}
		coreID := uint32(i)
		info := mem.NewRegDevice("info", 4, 1, func(reg uint32) uint32 {
			switch reg {
			case 0:
				return coreID
			case 1:
				return uint32(cfg.Cores)
			}
			return 0
		}, nil)
		if err := ctl.AddRange(mem.Range{Name: "info", Base: InfoBase,
			Target: info, Kind: mem.KindDevice}); err != nil {
			return nil, err
		}

		var icache, dcache *mem.Cache
		if cfg.ICache != nil {
			cc := *cfg.ICache
			cc.Name = fmt.Sprintf("icache%d", i)
			icache = mem.NewCache(cc)
		}
		if cfg.DCache != nil {
			cc := *cfg.DCache
			cc.Name = fmt.Sprintf("dcache%d", i)
			dcache = mem.NewCache(cc)
		}
		ctl.AttachCaches(icache, dcache)

		kind := cfg.CoreKind
		if i < len(cfg.CoreKinds) {
			kind = cfg.CoreKinds[i]
		}
		core := cpu.New(i, kind, ctl)
		core.EnableBlocks()
		p.Cores = append(p.Cores, core)
		p.Ctrls = append(p.Ctrls, ctl)
		p.Privs = append(p.Privs, priv)
	}
	return p, nil
}

// MustNew is New for trusted configurations.
func MustNew(cfg Config) *Platform {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// LoadProgram writes an assembled image into core's private memory and
// points the core at its entry. Different binaries per core are supported,
// as with the EDK loader in the paper.
func (p *Platform) LoadProgram(core int, im *asm.Image) error {
	if core < 0 || core >= len(p.Cores) {
		return fmt.Errorf("emu: core %d out of range", core)
	}
	limit := uint32(p.Cfg.PrivKB) * 1024
	for _, s := range im.Sections {
		if s.Addr+uint32(len(s.Data)) > limit {
			return fmt.Errorf("emu: image section at 0x%x exceeds %d KB private memory",
				s.Addr, p.Cfg.PrivKB)
		}
		p.Privs[core].WriteBytes(s.Addr, s.Data)
	}
	p.Cores[core].Reset(im.Entry)
	return nil
}

// LoadWorkload loads one program per core and writes the workload's
// initial shared-memory blocks.
func (p *Platform) LoadWorkload(spec *workloads.Spec) error {
	if len(spec.Programs) != len(p.Cores) {
		return fmt.Errorf("emu: workload %s has %d programs for %d cores",
			spec.Name, len(spec.Programs), len(p.Cores))
	}
	for i, im := range spec.Programs {
		if err := p.LoadProgram(i, im); err != nil {
			return err
		}
	}
	for _, b := range spec.Shared {
		p.WriteShared(b.Addr, b.Data)
	}
	return nil
}

// WriteShared initialises shared memory (used by workload loaders).
func (p *Platform) WriteShared(offset uint32, data []byte) {
	p.Shared.WriteBytes(offset, data)
}

// ReadSharedWord reads one word of shared memory without timing and
// without counting the read: host-side inspection, such as a workload's
// result check, leaves the statistics to emulated traffic.
func (p *Platform) ReadSharedWord(offset uint32) uint32 {
	return p.Shared.PeekWord(offset)
}

// StepOne advances the platform by exactly one virtual cycle, sweeping
// every core. It is the per-cycle reference kernel the skip-ahead kernel is
// tested against; Step/Run are strictly faster and bit-identical.
func (p *Platform) StepOne() {
	now := p.VPCM.Cycle()
	for _, c := range p.Cores {
		c.Step(now)
	}
	p.VPCM.Advance(1)
}

// SkipStats is the kernels' telemetry: how much per-cycle work the
// run-ahead and skip-ahead stepping avoided.
type SkipStats struct {
	// SkippedCycles counts core-cycles settled in bulk — stall/idle spans
	// charged by accrual instead of per-cycle Step calls.
	SkippedCycles uint64
	// CoreSteps counts instructions issued (block-dispatched or stepped).
	CoreSteps uint64
}

// SkipStats returns the cumulative skip-ahead telemetry.
func (p *Platform) SkipStats() SkipStats { return p.skip }

// Step advances the platform by n cycles (or until every core halts).
func (p *Platform) Step(n uint64) {
	p.stepSpan(p.VPCM.Cycle() + n)
}

// Run executes until every core halts or maxCycles elapse. It returns the
// cycle count at which it stopped and whether all cores halted.
func (p *Platform) Run(maxCycles uint64) (uint64, bool) {
	if p.VPCM.Cycle() < maxCycles {
		p.stepSpan(maxCycles)
	}
	return p.VPCM.Cycle(), p.AllHalted()
}

// stepSpan advances virtual time to limit (exclusive) — or to one cycle
// past the last core's halt, whichever comes first — with the ordered
// run-ahead kernel.
//
// The kernel keeps one wake cycle per core: the next cycle on which that
// core issues an instruction (halted = never). It repeatedly picks the core
// with the smallest (wake, coreID), settles the stall span that ends there
// in one charge, and runs translated blocks from that cycle towards limit
// with sharedBefore set to the earliest wake among the other cores. A core
// alone at the front may run far ahead on private work — registers,
// private memory, scratchpad, L1s, its stall counter — because no other
// core can observe that work. It stops before its first non-private access
// (shared memory, interconnect, barrier, devices) at or after sharedBefore;
// when dispatch cannot start at all (an undispatchable pc, a tracer, or a
// non-private access tied with a higher-ID core) the front core executes
// one interpreter Step instead. Either way every non-private access commits
// at the global front of the (cycle, coreID) order, which is exactly
// StepOne's interleaving: no access another core could observe is ever
// reordered, and the rest is invisible.
//
// Stall and idle spans are settled in bulk via cpu.AccrueStall/AccrueIdle
// when the core next wakes or when the span ends; live cores are tracked as
// a count updated on halt transitions. The result is bit-identical to
// per-cycle stepping — same counters, VPCM time and
// architectural state — which the golden digests and the differential
// matrix enforce.
func (p *Platform) stepSpan(limit uint64) {
	start := p.VPCM.Cycle()
	if start >= limit {
		return
	}
	if cap(p.wake) < len(p.Cores) {
		p.wake = make([]uint64, len(p.Cores))
		p.idleFrom = make([]uint64, len(p.Cores))
	}
	wake := p.wake[:len(p.Cores)]
	idleFrom := p.idleFrom[:len(p.Cores)]

	// Entry state: cores may have been reset, loaded or stepped elsewhere
	// since the last span, so the wake list is rebuilt each call.
	live := 0
	for i, c := range p.Cores {
		if c.Halted() {
			wake[i] = cpu.WakeNever
			idleFrom[i] = start
			continue
		}
		live++
		wake[i] = c.WakeCycle(start)
	}

	// stop tracks one past the latest cycle on which a core halted this
	// span: where the per-cycle kernel would stop once the last core halts.
	stop := start
	for live > 0 {
		// The front core (lowest ID on ties) and the earliest other wake.
		i := 0
		for j, w := range wake {
			if w < wake[i] {
				i = j
			}
		}
		cyc := wake[i]
		if cyc >= limit {
			break
		}
		other := uint64(cpu.WakeNever)
		for j, w := range wake {
			if j != i && w < other {
				other = w
			}
		}
		c := p.Cores[i]
		if s := c.StallRemaining(); s > 0 {
			p.skip.SkippedCycles += s
			c.AccrueStall(s)
		}
		n, steps, skipped := c.StepBlocks(cyc, limit-cyc, other)
		if n == 0 {
			c.Step(cyc)
			n, steps = 1, 1
		}
		p.skip.CoreSteps += steps
		p.skip.SkippedCycles += skipped
		if c.Halted() {
			live--
			wake[i] = cpu.WakeNever
			idleFrom[i] = cyc + n
			if cyc+n > stop {
				stop = cyc + n
			}
		} else {
			wake[i] = c.WakeCycle(cyc + n)
		}
	}

	// End of span: when the last core halted at cycle h the per-cycle
	// kernel stops after sweeping h (time h+1); otherwise at limit.
	end := limit
	if live == 0 && stop < limit {
		end = stop
	}

	// Flush the open spans so observers between kernel calls (snapshots,
	// digests, power windows) see per-cycle-identical counters.
	for i, c := range p.Cores {
		if c.Halted() {
			p.skip.SkippedCycles += end - idleFrom[i]
			c.AccrueIdle(end - idleFrom[i])
			continue
		}
		if acct := wake[i] - c.StallRemaining(); end > acct {
			p.skip.SkippedCycles += end - acct
			c.AccrueStall(end - acct)
		}
	}
	if end > start {
		p.VPCM.Advance(end - start)
	}
}

// AllHalted reports whether every core has halted or faulted.
func (p *Platform) AllHalted() bool {
	for _, c := range p.Cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// Fault returns the first core fault, if any.
func (p *Platform) Fault() error {
	for _, c := range p.Cores {
		if err := c.Fault(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is a copy of every count-logging statistic of the platform at a
// point in time; subtracting two snapshots gives a sampling window.
type Snapshot struct {
	Cycle   uint64
	TimePs  uint64
	FreqHz  uint64
	Cores   []cpu.Stats
	ICaches []mem.CacheStats
	DCaches []mem.CacheStats
	Ctrls   []mem.CtrlStats
	Shared  mem.MemStats
	Bus     *bus.Stats
	Noc     *noc.Stats
}

// Snapshot captures the current statistics.
func (p *Platform) Snapshot() Snapshot {
	var s Snapshot
	p.SnapshotInto(&s)
	return s
}

// SnapshotInto captures the current statistics into s, reusing its slices
// and Bus/Noc allocations. The first call on a given buffer sizes each
// slice once; later calls allocate nothing, which is what the pipelined
// co-emulation loop needs on its per-window hot path.
func (p *Platform) SnapshotInto(s *Snapshot) {
	s.Cycle = p.VPCM.Cycle()
	s.TimePs = p.VPCM.TimePs()
	s.FreqHz = p.VPCM.Frequency()
	s.Shared = p.Shared.Stats()
	n := len(p.Cores)
	s.Cores = slices.Grow(s.Cores[:0], n)
	s.ICaches = slices.Grow(s.ICaches[:0], n)
	s.DCaches = slices.Grow(s.DCaches[:0], n)
	s.Ctrls = slices.Grow(s.Ctrls[:0], n)
	for i, c := range p.Cores {
		s.Cores = append(s.Cores, c.Stats())
		if ic := p.Ctrls[i].ICache(); ic != nil {
			s.ICaches = append(s.ICaches, ic.Stats())
		} else {
			s.ICaches = append(s.ICaches, mem.CacheStats{})
		}
		if dc := p.Ctrls[i].DCache(); dc != nil {
			s.DCaches = append(s.DCaches, dc.Stats())
		} else {
			s.DCaches = append(s.DCaches, mem.CacheStats{})
		}
		s.Ctrls = append(s.Ctrls, p.Ctrls[i].Stats())
	}
	if p.Bus != nil {
		if s.Bus == nil {
			s.Bus = new(bus.Stats)
		}
		*s.Bus = p.Bus.Stats()
	} else {
		s.Bus = nil
	}
	if p.Net != nil {
		if s.Noc == nil {
			s.Noc = new(noc.Stats)
		}
		*s.Noc = p.Net.Stats()
	} else {
		s.Noc = nil
	}
}

// CopyInto deep-copies the snapshot into dst, reusing dst's allocations the
// same way SnapshotInto does.
func (s *Snapshot) CopyInto(dst *Snapshot) {
	dst.Cycle = s.Cycle
	dst.TimePs = s.TimePs
	dst.FreqHz = s.FreqHz
	dst.Shared = s.Shared
	dst.Cores = append(dst.Cores[:0], s.Cores...)
	dst.ICaches = append(dst.ICaches[:0], s.ICaches...)
	dst.DCaches = append(dst.DCaches[:0], s.DCaches...)
	dst.Ctrls = append(dst.Ctrls[:0], s.Ctrls...)
	if s.Bus != nil {
		if dst.Bus == nil {
			dst.Bus = new(bus.Stats)
		}
		*dst.Bus = *s.Bus
	} else {
		dst.Bus = nil
	}
	if s.Noc != nil {
		if dst.Noc == nil {
			dst.Noc = new(noc.Stats)
		}
		*dst.Noc = *s.Noc
	} else {
		dst.Noc = nil
	}
}

// TotalInstructions returns the committed instruction count across cores.
func (p *Platform) TotalInstructions() uint64 {
	var n uint64
	for _, c := range p.Cores {
		n += c.Stats().Instructions
	}
	return n
}

// DefaultChunk is RunDigest's default sampling period, in cycles.
const DefaultChunk = 1024
