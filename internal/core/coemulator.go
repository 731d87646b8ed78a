package core

import (
	"fmt"
	"time"

	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/golden"
	"thermemu/internal/mparm"
	"thermemu/internal/power"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/vpcm"
	"thermemu/internal/workloads"
)

// Config describes one co-emulation run.
type Config struct {
	Platform emu.Config
	Workload *workloads.Spec
	// Floorplan-derived thermal host. In in-process mode it is stepped
	// directly; in transport mode it only provides the component count and
	// geometry while the remote host owns the thermal state.
	Host *ThermalHost
	// WindowPs is the statistics sampling period in virtual picoseconds
	// (the paper uses 10 ms).
	WindowPs uint64
	// Policy is the run-time thermal-management policy (nil = none).
	Policy tm.Policy
	// Leakage, when non-nil, adds temperature-dependent static power
	// (future-node exploration; the paper ignores leakage at 130 nm).
	Leakage *power.LeakageModel
	// DVFS, when non-nil, applies voltage scaling on top of frequency
	// scaling at the curve's operating points.
	DVFS power.DVFSCurve
	// Transport, when non-nil, routes the power/temperature exchange over
	// the Ethernet link instead of direct calls; the peer must run
	// ThermalHost.Serve. DrainPhysCycles models the congestion penalty.
	Transport       etherlink.Transport
	DrainPhysCycles uint64
	// Link tunes the NACK/resend-window protocol every link endpoint runs
	// (zero values take the etherlink defaults); the peer tunes its own
	// with ServeOptions.Link.
	Link etherlink.ReliableConfig
	// MaxCycles bounds the run (0 = until the workload halts, with a large
	// safety cap).
	MaxCycles uint64
	// ThermalTimeScale multiplies the thermal integration time of every
	// window (default 1). The paper runs minutes of emulation to cover the
	// seconds-scale thermal transients; this knob compresses the thermal
	// trajectory so short emulations exhibit the same heating/TM dynamics.
	// It affects only the thermal axis, never the cycle-accurate platform.
	ThermalTimeScale float64
	// Golden, when non-nil, accumulates a conformance digest of the run:
	// every sampling window's statistics snapshot plus the platform's full
	// architectural state at run end (see internal/golden). Two runs with
	// equal digests executed the same emulation bit for bit.
	Golden *golden.Trace
	// PipelineDepth is the sensor latency of the closed loop in windows:
	// the feedback (DFS action, component temperatures) of window N takes
	// effect at the boundary where window N+PipelineDepth+1 begins. The
	// thermal solve always runs on its own goroutine.
	//
	// At 0 each window's feedback applies at the very next boundary, so
	// the results are those of emulating, solving and applying strictly in
	// turn. The loop still overlaps, because the platform never reads its
	// frequency: while a window solves it emulates the next window's floor
	// span, the window's cycle count at the lower of the current frequency
	// and the policy's tm.Policy.FloorHz (the whole window with no policy),
	// and the verdict then re-times those cycles (vpcm.SetFrequencyAt).
	// This holds over the link as in process. Nothing overlaps for a policy
	// whose floor is unknown or on a window that cuts a checkpoint, and a
	// verdict below the floor aborts the run; Result.OverlapCycles counts
	// the cycles that overlapped.
	//
	// Above 0 window N+1 emulates while window N is dispatched and solved,
	// behind a bounded hand-off queue of that depth; when the queue fills,
	// the virtual clock freezes under the vpcm.ThermalLagSource attribution
	// instead of corrupting windows. Window boundaries depend only on
	// emulated state, so runs are bit-reproducible at every depth and —
	// with TM feedback off — digest-identical across depths. Every platform
	// configuration runs at every depth.
	PipelineDepth int
	// DiscardSamples skips accumulating Result.Samples so week-long
	// monitoring runs keep a flat memory profile; onSample still observes
	// every window, but the sample's slices are only valid during the
	// callback (they are the loop's reused window buffers).
	DiscardSamples bool
	// CheckpointEvery cuts a checkpoint through CheckpointSink every N
	// committed sampling windows (0 with a sink set means every window).
	// Checkpointing requires the in-process thermal host — a transport-mode
	// run does not own the thermal state and is rejected. The rule is the
	// same at every depth: right after the window that brings the emulated
	// window count to a multiple of N — the run's final window included —
	// every in-flight window drains (a pipeline flush) and the checkpoint
	// is cut. A depth-0 run has nothing in flight to drain. At depth > 0
	// the drain applies feedback earlier than the steady-state schedule, so
	// the cadence is part of the run's determinism contract: two runs with
	// the same cadence are bit-identical, and a checkpointed run matches an
	// uncheckpointed one whenever TM feedback (DFS, leakage) is off.
	CheckpointEvery int
	// CheckpointSink receives each checkpoint as it is cut (e.g.
	// checkpoint.Checkpoint.WriteFile). A sink error aborts the run with a
	// Partial result. On any abort a final checkpoint with Partial set is
	// flushed, so a mid-run failure still leaves a loadable snapshot.
	CheckpointSink func(*checkpoint.Checkpoint) error
	// Resume, when non-nil, restores the platform, thermal model, policy
	// state and golden digest lineage from the checkpoint before the loop
	// starts: the resumed run's final golden digest equals an uninterrupted
	// run's. The platform/workload configuration must match the
	// checkpointed run — a mismatch is rejected at restore time by the
	// checkpoint's embedded state digest.
	Resume *checkpoint.Checkpoint
	// Fork skips Resume's golden-lineage seeding: the resumed run is a new
	// experiment branching off the snapshot (what-if exploration from a
	// shared warm-up prefix) rather than a continuation of the original.
	Fork bool
}

// Sample is one closed-loop observation: the end of one sampling window.
type Sample struct {
	Cycle      uint64
	TimePs     uint64
	FreqHz     uint64
	CompPowerW []float64
	CellTempK  []float64
	CompTempK  []float64
	MaxTempK   float64
	Throttled  bool // true while the policy holds a reduced frequency
}

// Result summarises a finished co-emulation.
type Result struct {
	Samples   []Sample
	Cycles    uint64
	VirtualS  float64
	Wall      time.Duration
	Done      bool
	DFSEvents int
	MaxTempK  float64
	FinalSnap emu.Snapshot
	// Link is the link metrics snapshot of a transport-mode run: frames,
	// bytes, windows sent and answered, congestions, frozen time,
	// retries, gaps, CRC errors and the latency histogram.
	Link etherlink.LinkSnapshot
	// Report is the platform's detailed statistics report at run end. It is
	// empty on a partial result: a half-stepped platform's counters are not
	// meaningful.
	Report string
	// Partial marks a run that aborted mid-window (e.g. on a link error):
	// Cycles, VirtualS and FinalSnap then describe the last *committed*
	// sampling window — the platform state past it was never solved and is
	// not reported.
	Partial bool
	// ThermalLagPs is the physical time the virtual clock spent frozen
	// because the thermal solve (or the link carrying it) lagged the
	// pipelined emulation (vpcm.ThermalLagSource). Always 0 at depth 0:
	// there the loop waits for each verdict at the boundary it applies at,
	// as a synchronous solve would. At every depth the dispatcher accounts
	// its own link stalls under etherlink.FreezeSource and
	// etherlink.ResendFreezeSource.
	ThermalLagPs uint64
	// OverlapCycles counts the depth-0 cycles emulated while a window's
	// verdict was outstanding (see Config.PipelineDepth), in process or over
	// the link: one floor span per window, cut short by a halt or
	// MaxCycles. Like the samples and digests it never depends on host
	// timing. It is 0 at depth > 0, where whole windows overlap instead.
	OverlapCycles uint64
}

// DefaultWindowPs is the paper's 10 ms sampling period.
const DefaultWindowPs = 10_000_000_000

// Fig6Config builds the Figure 6 experiment: the Fig6 platform (4 RISC-32
// cores, 8 kB DM caches, 32 kB private + 32 kB shared memories, 4-switch
// NoC at 500 MHz), the Matrix-TM workload, the 4×ARM11 floorplan gridded
// into 28 thermal cells, and — when withTM is set — the 350 K/340 K
// threshold DFS policy.
func Fig6Config(iters int, withTM bool) (Config, error) {
	pcfg := emu.Fig6Config()
	spec, err := workloads.MatrixTM(4, 16, iters, pcfg.PrivKB)
	if err != nil {
		return Config{}, err
	}
	host, err := NewThermalHost(fig6Floorplan(), 28, thermal.DefaultOptions())
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Platform: pcfg,
		Workload: spec,
		Host:     host,
		WindowPs: DefaultWindowPs,
	}
	if withTM {
		cfg.Policy = tm.NewThresholdDFS()
	}
	return cfg, nil
}

// Run executes the co-emulation loop. onSample, when non-nil, receives
// every sample as it is produced (e.g. for CSV streaming).
func Run(cfg Config, onSample func(Sample)) (*Result, error) {
	return run(cfg, onSample, func(p *emu.Platform) (func(uint64), func() error) {
		return p.Step, nil
	})
}

// RunMPARM executes the same closed loop with the signal-level MPARM-class
// kernel (package mparm) stepping the platform instead of the fast kernel:
// the Table 3 baseline with its SW thermal library. Windows, feedback,
// checkpoints and the golden digest follow Run's rules, so both kernels give
// the same digest for the same Config. After the loop the statistics the
// kernel recovered from signal traffic are checked against the platform's
// own counters. Resume is refused: those statistics count from the kernel's
// construction, so a resumed platform's counters could never match them.
func RunMPARM(cfg Config, onSample func(Sample)) (*Result, error) {
	if cfg.Resume != nil {
		return nil, fmt.Errorf("core: the MPARM baseline cannot resume a checkpoint (its signal-recovered statistics start at zero)")
	}
	return run(cfg, onSample, func(p *emu.Platform) (func(uint64), func() error) {
		k := mparm.New(p)
		return k.Step, k.VerifyObserved
	})
}

// run builds and loads the platform, restores any checkpoint, wires the
// link, and runs the loop with the step function kernel binds to the
// platform. A non-nil verify runs after a loop that ended without error.
func run(cfg Config, onSample func(Sample),
	kernel func(*emu.Platform) (step func(uint64), verify func() error)) (*Result, error) {
	if cfg.Workload == nil || cfg.Host == nil {
		return nil, fmt.Errorf("core: workload and host are required")
	}
	if cfg.PipelineDepth < 0 {
		return nil, fmt.Errorf("core: negative pipeline depth %d", cfg.PipelineDepth)
	}
	if cells := len(cfg.Host.SiCells); cfg.Transport != nil && etherlink.MaxTempsBatch(cells) == 0 {
		return nil, &etherlink.TempsTooLargeError{Cells: cells}
	}
	if cfg.WindowPs == 0 {
		cfg.WindowPs = DefaultWindowPs
	}
	p, err := emu.New(cfg.Platform)
	if err != nil {
		return nil, err
	}
	if err := p.LoadWorkload(cfg.Workload); err != nil {
		return nil, err
	}

	eval := NewPowerEvaluator(cfg.Host.FP)
	eval.Leakage = cfg.Leakage
	eval.DVFS = cfg.DVFS
	// Checkpoint/resume setup. Resume restores the platform (clock, cores,
	// memories, interconnect), the thermal model, the policy and the golden
	// lineage here, before the first snapshot below is taken.
	ck, resumedMax, err := newCkptRuntime(&cfg, p, eval)
	if err != nil {
		return nil, err
	}
	var disp *etherlink.Dispatcher
	if cfg.Transport != nil {
		// The dispatcher runs on the solve stage, concurrently with the
		// emulating stage that advances the VPCM; it only accounts frozen
		// time, which the VPCM guards for exactly that.
		disp = etherlink.NewDispatcher(cfg.Transport, p.VPCM, cfg.DrainPhysCycles)
		disp.EnableReliability(cfg.Link)
		if err := disp.SendCtrl(etherlink.CtrlStart, uint64(cfg.Host.NumComponents())); err != nil {
			return nil, err
		}
	}

	step, verify := kernel(p)
	res, err := runLoop(cfg, p, step, eval, disp, onSample, ck, resumedMax)
	if err == nil && verify != nil {
		err = verify()
	}
	return res, err
}

// FreqHistory exposes the VPCM DFS trace of a finished platform run; the
// co-emulator records frequencies per sample, which is usually enough, but
// detailed traces can be taken from the platform directly.
type FreqHistory = vpcm.FreqChange
