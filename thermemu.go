// Package thermemu is a software reproduction of the fast HW/SW FPGA-based
// thermal emulation framework for MPSoCs of Atienza et al. (DAC 2006).
//
// The framework couples a cycle-level MPSoC emulator (standing in for the
// FPGA: R32 RISC cores, configurable caches and memories, bus or NoC
// interconnects, HW statistics sniffers and the VPCM virtual clock) with a
// SW thermal library (an RC network with non-linear silicon conductivity)
// over the paper's Ethernet MAC-frame protocol, closing the loop through
// run-time thermal-management policies such as threshold DFS.
//
// Quick start:
//
//	spec, _ := thermemu.Matrix(4, 16, 1)
//	res, _ := thermemu.RunWorkload(thermemu.DefaultPlatform(4), spec)
//	fmt.Println(res)
//
// Closed-loop thermal co-emulation:
//
//	cfg, _ := thermemu.Fig6(1000, true) // Matrix-TM with threshold DFS
//	out, _ := thermemu.RunCoEmulation(cfg, nil)
//	fmt.Printf("max %.1f K after %d DFS events\n", out.MaxTempK, out.DFSEvents)
//
// The exported types are aliases of the implementation packages, so the
// whole configuration surface (platform, floorplans, thermal properties,
// policies, transports) is available through this single import.
package thermemu

import (
	"fmt"
	"time"

	"thermemu/internal/checkpoint"
	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/golden"
	"thermemu/internal/mparm"
	"thermemu/internal/scenario"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

// Re-exported configuration and result types.
type (
	// PlatformConfig configures the emulated MPSoC (cores, caches,
	// memories, interconnect, clocks).
	PlatformConfig = emu.Config
	// Platform is one instantiated MPSoC emulation.
	Platform = emu.Platform
	// Workload is a loadable program set with its verifier.
	Workload = workloads.Spec
	// CoEmulationConfig configures a closed-loop thermal run.
	CoEmulationConfig = core.Config
	// CoEmulationResult is the outcome of a closed-loop run.
	CoEmulationResult = core.Result
	// Sample is one sampling-window observation of the closed loop.
	Sample = core.Sample
	// ThermalHost is the host-PC side thermal service.
	ThermalHost = core.ThermalHost
	// Floorplan is a placed die.
	Floorplan = floorplan.Floorplan
	// Transport moves framework MAC frames between device and host.
	Transport = etherlink.Transport
	// ThermalOptions configures the RC thermal model (mesh depth, material
	// properties, and the Workers solver-sharding knob).
	ThermalOptions = thermal.Options
	// LinkStats aggregates atomic link-layer counters (shareable across
	// endpoints); LinkSnapshot is its JSON-encodable point-in-time copy.
	LinkStats    = etherlink.LinkStats
	LinkSnapshot = etherlink.LinkSnapshot
	// LinkFaultConfig describes per-direction link impairments (drops,
	// duplicates, reordering, corruption, latency, mid-stream cuts).
	LinkFaultConfig = etherlink.FaultConfig
	// LinkReliability tunes the NACK/resend-window loss-recovery protocol.
	LinkReliability = etherlink.ReliableConfig
	// LinkSupervisorConfig tunes the device-side reconnecting transport.
	LinkSupervisorConfig = etherlink.SupervisorConfig
	// ServeOptions tunes one ThermalHost.Serve session (shared metrics,
	// idle budget, reliability).
	ServeOptions = core.ServeOptions
	// GoldenTrace is a streaming conformance digest over emulation state;
	// two runs with equal digests executed the same emulation bit for bit.
	GoldenTrace = golden.Trace
	// GoldenDivergence localises the first difference between two journaled
	// golden traces (cycle, core, field, both values).
	GoldenDivergence = golden.Divergence
	// Checkpoint is a versioned full-state snapshot of a run at a sampling
	// window boundary: platform architectural state, thermal/policy loop
	// state and golden digest lineage, with an embedded state digest that
	// rejects corrupt or mismatched snapshots at load time. Produce them
	// with CoEmulationConfig.CheckpointSink, consume with
	// CoEmulationConfig.Resume (or Fork).
	Checkpoint = checkpoint.Checkpoint
	// CheckpointStore is an ordered in-memory checkpoint collection, the
	// replay debugger's seek index.
	CheckpointStore = checkpoint.Store
	// Replayer rebuilds one side of a divergence investigation for
	// ReplayToDivergence.
	Replayer = checkpoint.Replayer
	// ReplayReport pins a divergence to its exact cycle with the differing
	// fields and both sides' full state dumps.
	ReplayReport = checkpoint.Report
	// Scenario is a declarative run description parsed from the versioned
	// scenario text format; its CoEmulation method yields the same
	// CoEmulationConfig the equivalent CLI flags would, bit for bit.
	Scenario = scenario.Scenario
)

// ErrNoConvergence is the sentinel wrapped by SteadyState errors when the
// relaxation exhausts its sweep budget; branch on it with errors.Is.
var ErrNoConvergence = thermal.ErrNoConvergence

// DefaultThermalOptions returns the Table 2 thermal model configuration
// (auto worker count: Workers 0 resolves to GOMAXPROCS).
func DefaultThermalOptions() ThermalOptions { return thermal.DefaultOptions() }

// DefaultPlatform returns the Table 3 exploration platform with the given
// core count (4 KB I/D caches, 16 KB private memories, 1 MB shared, OPB).
func DefaultPlatform(cores int) PlatformConfig { return emu.DefaultConfig(cores) }

// NoCPlatform returns DefaultPlatform with the Table 3 two-switch NoC in
// place of the bus.
func NoCPlatform(cores int) PlatformConfig {
	cfg := emu.DefaultConfig(cores)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Table3NoC(cores)
	return cfg
}

// Matrix builds the MATRIX workload for the given core count: independent
// n×n integer matrix multiplications per core, combined in shared memory.
func Matrix(cores, n, iters int) (*Workload, error) {
	return workloads.Matrix(cores, n, iters, DefaultPlatform(cores).PrivKB)
}

// Dithering builds the DITHERING workload: Floyd–Steinberg dithering of two
// size×size grey images in shared memory, one segment per core.
func Dithering(cores, size int) (*Workload, error) {
	return workloads.Dithering(cores, size)
}

// LoadScenario reads, parses and lints a declarative scenario file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// Fig6 builds the Figure 6 closed-loop experiment configuration (Matrix-TM
// on the 500 MHz NoC platform, 28 thermal cells, optional threshold DFS).
func Fig6(iters int, withTM bool) (CoEmulationConfig, error) {
	return core.Fig6Config(iters, withTM)
}

// NewThermalHost grids a floorplan into about targetCells thermal cells and
// builds the RC model around it (Table 2 properties).
func NewThermalHost(fp *Floorplan, targetCells int) (*ThermalHost, error) {
	return core.NewThermalHost(fp, targetCells, thermal.DefaultOptions())
}

// NewThermalHostWith is NewThermalHost with explicit thermal options, e.g. to
// pin the solver worker count (opt.Workers) or the mesh depth.
func NewThermalHostWith(fp *Floorplan, targetCells int, opt ThermalOptions) (*ThermalHost, error) {
	return core.NewThermalHost(fp, targetCells, opt)
}

// FourARM7 and FourARM11 return the floorplans of Figure 4.
func FourARM7() *Floorplan { return floorplan.FourARM7() }

// FourARM11 returns floorplan (b) of Figure 4.
func FourARM11() *Floorplan { return floorplan.FourARM11() }

// ThresholdDFS returns the paper's 350 K/340 K, 500/100 MHz policy.
func ThresholdDFS() tm.Policy { return tm.NewThresholdDFS() }

// RunStats summarises a plain (non-thermal) emulation run.
type RunStats struct {
	Name         string
	Cycles       uint64
	Instructions uint64
	VirtualS     float64
	Wall         time.Duration
	Done         bool
	// SlowdownVsRT is wall time over emulated virtual time: how much
	// slower than real time the emulation ran.
	SlowdownVsRT float64
}

// String formats the run summary.
func (r RunStats) String() string {
	return fmt.Sprintf("%s: %d cycles (%d instr) in %v — %.3f s virtual, %.1fx real time",
		r.Name, r.Cycles, r.Instructions, r.Wall.Round(time.Microsecond), r.VirtualS, r.SlowdownVsRT)
}

// RunWorkload executes a workload on the fast emulation kernel and verifies
// its result.
func RunWorkload(cfg PlatformConfig, spec *Workload) (RunStats, error) {
	return runEmulator(cfg, spec, "emulator/", func(p *emu.Platform) (func() (uint64, bool), func() error) {
		return func() (uint64, bool) { return p.Run(1 << 62) }, nil
	})
}

// runEmulator builds the platform, loads spec and binds the kernel to it.
// It times the kernel's run to completion, then verifies the workload's
// result and, when the kernel gives one, runs its own check.
func runEmulator(cfg PlatformConfig, spec *Workload, kind string,
	kernel func(*emu.Platform) (run func() (uint64, bool), check func() error)) (RunStats, error) {
	p, err := emu.New(cfg)
	if err != nil {
		return RunStats{}, err
	}
	if err := p.LoadWorkload(spec); err != nil {
		return RunStats{}, err
	}
	run, check := kernel(p)
	start := time.Now()
	cycles, done := run()
	wall := time.Since(start)
	if err := p.Fault(); err != nil {
		return RunStats{}, err
	}
	if done && spec.Verify != nil {
		if err := spec.Verify(p.ReadSharedWord); err != nil {
			return RunStats{}, err
		}
	}
	if check != nil {
		if err := check(); err != nil {
			return RunStats{}, err
		}
	}
	return newRunStats(kind+spec.Name, p, cycles, wall, done), nil
}

// NewGoldenTrace returns a streaming digest-only golden trace (constant
// memory; CompareGolden can tell two such traces apart but not localise the
// divergence).
func NewGoldenTrace() *GoldenTrace { return golden.New() }

// NewGoldenJournal returns a golden trace that additionally journals every
// record, so CompareGolden reports the first divergent cycle, core and field.
func NewGoldenJournal() *GoldenTrace { return golden.NewJournal() }

// CompareGolden returns nil when two golden traces digest the same emulation,
// otherwise a divergence report (localised when both traces are journals).
func CompareGolden(a, b *GoldenTrace) *GoldenDivergence { return golden.Compare(a, b) }

// ReadCheckpoint loads and verifies a checkpoint file written by a
// CheckpointSink (e.g. Checkpoint.WriteFile): the strict decoder rejects
// truncated, corrupted or trailing-garbage streams.
func ReadCheckpoint(path string) (*Checkpoint, error) { return checkpoint.ReadFile(path) }

// ReplayToDivergence lockstep-replays two sides from their nearest common
// checkpoint with the per-cycle reference kernel and reports the exact
// cycle, core and fields where their architectural state first disagrees.
// hintCycle usually comes from ReplayHint on a golden divergence.
func ReplayToDivergence(a, b *Replayer, hintCycle uint64) (*ReplayReport, error) {
	return checkpoint.ReplayToDivergence(a, b, hintCycle)
}

// ReplayHint extracts the replay target cycle from a golden divergence.
func ReplayHint(d *GoldenDivergence) (uint64, bool) { return checkpoint.HintFromDivergence(d) }

// RunWorkloadGolden is RunWorkload with conformance sampling: a statistics
// snapshot is folded into tr every `every` cycles plus the platform's full
// architectural state at the end. Traces from equal (workload, platform,
// every) runs must compare equal, run after run.
func RunWorkloadGolden(cfg PlatformConfig, spec *Workload, every uint64, tr *GoldenTrace) (RunStats, error) {
	return runEmulator(cfg, spec, "emulator/", func(p *emu.Platform) (func() (uint64, bool), func() error) {
		return func() (uint64, bool) { return p.RunDigest(1<<62, every, tr) }, nil
	})
}

// RunWorkloadMPARM executes a workload on the signal-level cycle-accurate
// baseline kernel (the MPARM stand-in) and verifies both the result and the
// statistics recovered from the signal traffic.
func RunWorkloadMPARM(cfg PlatformConfig, spec *Workload) (RunStats, error) {
	return runEmulator(cfg, spec, "mparm/", func(p *emu.Platform) (func() (uint64, bool), func() error) {
		k := mparm.New(p)
		return func() (uint64, bool) { return k.Run(1 << 62) }, k.VerifyObserved
	})
}

func newRunStats(name string, p *emu.Platform, cycles uint64, wall time.Duration, done bool) RunStats {
	rs := RunStats{
		Name:         name,
		Cycles:       cycles,
		Instructions: p.TotalInstructions(),
		VirtualS:     p.VPCM.Time(),
		Wall:         wall,
		Done:         done,
	}
	if rs.VirtualS > 0 {
		rs.SlowdownVsRT = wall.Seconds() / rs.VirtualS
	}
	return rs
}

// RunCoEmulation executes the closed HW/SW loop of the framework.
func RunCoEmulation(cfg CoEmulationConfig, onSample func(Sample)) (*CoEmulationResult, error) {
	return core.Run(cfg, onSample)
}

// DialThermalHost connects the device side to a remote thermal server
// (cmd/thermserver) over TCP.
func DialThermalHost(addr string) (Transport, error) {
	return etherlink.Dial(addr, 64)
}

// LoopbackLink returns a connected in-process device/host transport pair
// whose FIFO holds depth frames per direction.
func LoopbackLink(depth int) (device, host Transport) {
	return etherlink.LoopbackPair(depth)
}

// DialThermalHostSupervised is DialThermalHost with a connection
// supervisor: link faults trigger reconnection with capped exponential
// backoff plus jitter, and Close emits a graceful CtrlStop.
func DialThermalHostSupervised(cfg LinkSupervisorConfig) (Transport, error) {
	cfg.GracefulStop = true
	return etherlink.DialSupervised(cfg)
}

// WithLinkFaults wraps a transport with seeded per-direction fault
// injection, for testing protocol invariants under loss.
func WithLinkFaults(tr Transport, seed int64, send, recv LinkFaultConfig) Transport {
	return etherlink.NewFaultTransport(tr, seed, send, recv)
}

// ParseLinkFaultSpec parses a comma-separated impairment spec such as
// "drop=0.01,dup=0.005,delay=2ms" into a LinkFaultConfig.
func ParseLinkFaultSpec(spec string) (LinkFaultConfig, error) {
	return etherlink.ParseFaultSpec(spec)
}
