package core

import (
	"fmt"
	"time"

	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/golden"
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
	// Sensor models the physical temperature sensors feeding the VPCM
	// (quantisation/offset); the zero value is an ideal sensor.
	Sensor tm.SensorModel
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
	// Link tunes the NACK/resend-window reliability protocol of the
	// dispatcher endpoint (zero values take the etherlink defaults);
	// LinkPlain disables it entirely.
	Link      etherlink.ReliableConfig
	LinkPlain bool
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
	// PipelineDepth > 0 runs the loop as a software pipeline: window N+1
	// emulates while window N's statistics are dispatched and solved, with
	// a bounded hand-off queue of that depth. Temperature/DFS feedback is
	// applied at deterministic window boundaries with a fixed sensor
	// latency of PipelineDepth windows (the serial loop has latency 0), so
	// pipelined runs are bit-reproducible run to run and — with TM feedback
	// off — digest-identical to serial runs. When the queue fills, the
	// virtual clock freezes under the vpcm.ThermalLagSource attribution
	// instead of corrupting windows. 0 keeps the serial loop. Incompatible
	// with Platform.EventLogging (the event ring drains inline with the
	// emulating stage).
	PipelineDepth int
	// DiscardSamples skips accumulating Result.Samples so week-long
	// monitoring runs keep a flat memory profile; onSample still observes
	// every window, but the sample's slices are only valid during the
	// callback (they are reused buffers on the pipelined hot path).
	DiscardSamples bool
	// CheckpointEvery cuts a checkpoint through CheckpointSink every N
	// committed sampling windows (0 with a sink set means every window).
	// Checkpointing requires the in-process thermal host — a transport-mode
	// run does not own the thermal state and is rejected. In a pipelined
	// run every checkpoint first drains the pipeline (a pipeline flush), so
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
	Samples    []Sample
	Cycles     uint64
	VirtualS   float64
	Wall       time.Duration
	Done       bool
	DFSEvents  int
	MaxTempK   float64
	FinalSnap  emu.Snapshot
	Congestion etherlink.DispatcherStats
	// Link is the link-layer metrics snapshot of a transport-mode run
	// (frames, bytes, retries, gaps, CRC errors, latency histogram).
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
	// pipelined emulation (vpcm.ThermalLagSource). Always 0 in serial runs.
	ThermalLagPs uint64
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
	if cfg.Workload == nil || cfg.Host == nil {
		return nil, fmt.Errorf("core: workload and host are required")
	}
	if cfg.PipelineDepth < 0 {
		return nil, fmt.Errorf("core: negative pipeline depth %d", cfg.PipelineDepth)
	}
	if cfg.PipelineDepth > 0 && cfg.Platform.EventLogging {
		return nil, fmt.Errorf("core: pipelined loop is incompatible with event logging (the BRAM ring drains inline with the emulating stage)")
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
	if len(cfg.Workload.Programs) != len(p.Cores) {
		return nil, fmt.Errorf("core: workload has %d programs for %d cores",
			len(cfg.Workload.Programs), len(p.Cores))
	}
	for i, im := range cfg.Workload.Programs {
		if err := p.LoadProgram(i, im); err != nil {
			return nil, err
		}
	}
	for _, b := range cfg.Workload.Shared {
		p.WriteShared(b.Addr, b.Data)
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
		var frz etherlink.Freezer = p.VPCM
		if cfg.PipelineDepth > 0 {
			// The dispatcher runs on the solver stage, concurrent with the
			// emulating stage that advances the VPCM: it must account frozen
			// time (mutex-guarded) but may not toggle the freeze flag the
			// emulator polls. The emulating stage raises its own
			// thermal-lag freeze when the hand-off queue fills.
			frz = asyncFreezer{p.VPCM}
		}
		disp = etherlink.NewDispatcher(cfg.Transport, frz, cfg.DrainPhysCycles)
		if !cfg.LinkPlain {
			disp.EnableReliability(cfg.Link)
		}
		if err := disp.SendCtrl(etherlink.CtrlStart, uint64(cfg.Host.NumComponents())); err != nil {
			return nil, err
		}
		if cfg.Platform.EventLogging {
			// Event-logging sniffers drain through the link; when the BRAM
			// ring fills mid-window the dispatcher pumps it out (freezing
			// the virtual clock on congestion, per Section 4.2).
			p.OnBufferFull = func() bool {
				_, err := disp.PumpEvents(p.Ring)
				return err == nil
			}
		}
	}

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	tscale := cfg.ThermalTimeScale
	if tscale <= 0 {
		tscale = 1
	}
	if cfg.PipelineDepth > 0 {
		return runPipelined(cfg, p, eval, disp, maxCycles, tscale, onSample, ck, resumedMax)
	}
	res := &Result{MaxTempK: resumedMax}
	start := time.Now()
	// prev/snap are the window's boundary snapshots and committed the last
	// fully-solved window; an abort mid-window reports it instead of the
	// half-stepped platform state. The three buffers are reused across
	// windows (SnapshotInto/CopyInto), as in runPipelined.
	var prev, snap, committed emu.Snapshot
	p.SnapshotInto(&prev)
	prev.CopyInto(&committed)
	powers := make([]float64, cfg.Host.NumComponents())
	powerUW := make([]uint32, cfg.Host.NumComponents())
	partial := func(err error) (*Result, error) {
		err = ck.flushPartial(err, res.MaxTempK)
		res.Partial = true
		res.FinalSnap = committed
		res.Cycles = committed.Cycle
		res.VirtualS = float64(committed.TimePs) * 1e-12
		res.Wall = time.Since(start)
		res.DFSEvents = p.VPCM.DFSEvents()
		if disp != nil {
			res.Congestion = disp.Stats()
			res.Link = disp.Link().Snapshot()
		}
		return res, err
	}

	for !p.AllHalted() && p.VPCM.Cycle() < maxCycles {
		// One sampling window at the current virtual frequency.
		period := uint64(1e12) / p.VPCM.Frequency()
		n := cfg.WindowPs / period
		if n == 0 {
			n = 1
		}
		if left := maxCycles - p.VPCM.Cycle(); n > left {
			n = left
		}
		// With a Parallel platform the window is executed by the
		// deterministic parallel kernel; results are bit-identical to
		// serial stepping (asserted by the golden conformance suite), so
		// the whole closed loop — power, temperature, DFS — is unchanged.
		if cfg.Platform.Parallel {
			p.RunParallel(0, p.VPCM.Cycle()+n)
		} else {
			p.Step(n)
		}
		if err := p.Fault(); err != nil {
			return partial(err)
		}
		p.SnapshotInto(&snap)
		emu.DigestSnapshot(cfg.Golden, snap)
		if disp != nil && cfg.Platform.EventLogging {
			if _, err := disp.PumpEvents(p.Ring); err != nil {
				return partial(err)
			}
		}
		if _, err := eval.Powers(prev, snap, powers); err != nil {
			return partial(err)
		}
		windowPs := uint64(float64(snap.TimePs-prev.TimePs) * tscale)

		var cellTemps []float64
		if disp != nil {
			for i, w := range powers {
				powerUW[i] = uint32(w*1e6 + 0.5)
			}
			if err := disp.SendStats(&etherlink.Stats{
				Cycle: snap.Cycle, WindowPs: windowPs, PowerUW: powerUW,
			}); err != nil {
				return partial(err)
			}
			temps, err := disp.RecvTemps(nil)
			if err != nil {
				return partial(err)
			}
			cellTemps = make([]float64, len(temps.MilliK))
			for i := range temps.MilliK {
				cellTemps[i] = temps.Kelvin(i)
			}
		} else {
			cellTemps, err = cfg.Host.StepWindow(powers, float64(windowPs)*1e-12)
			if err != nil {
				return partial(err)
			}
		}

		compTemps := cfg.Host.ComponentTemps(cellTemps)
		eval.SetComponentTemps(compTemps)
		sample := Sample{
			Cycle:      snap.Cycle,
			TimePs:     snap.TimePs,
			FreqHz:     snap.FreqHz,
			CompPowerW: append([]float64(nil), powers...),
			CellTempK:  cellTemps,
			CompTempK:  compTemps,
		}
		for _, t := range cellTemps {
			if t > sample.MaxTempK {
				sample.MaxTempK = t
			}
		}
		if sample.MaxTempK > res.MaxTempK {
			res.MaxTempK = sample.MaxTempK
		}

		// Temperature sensors -> VPCM -> policy (DFS).
		if cfg.Policy != nil {
			sensors := make([]tm.Sensor, len(compTemps))
			for i := range compTemps {
				sensors[i] = tm.Sensor{Name: cfg.Host.FP.Components[i].Name,
					TempK: cfg.Sensor.Read(compTemps[i])}
			}
			action := cfg.Policy.Update(sensors)
			if action.SetFreqHz != 0 {
				p.VPCM.SetFrequency(action.SetFreqHz)
			}
			if th, ok := cfg.Policy.(*tm.ThresholdDFS); ok {
				sample.Throttled = th.Throttled()
			}
		}

		if !cfg.DiscardSamples {
			res.Samples = append(res.Samples, sample)
		}
		if onSample != nil {
			onSample(sample)
		}
		// The window is committed only once its temperatures arrived and the
		// policy ran: from here on its snapshot is safe to report.
		snap.CopyInto(&committed)
		prev, snap = snap, prev
		ck.commit(compTemps)
		if ck.due() {
			if err := ck.write(false, res.MaxTempK); err != nil {
				return partial(err)
			}
		}
	}

	if disp != nil {
		if err := disp.SendCtrl(etherlink.CtrlStop, p.VPCM.Cycle()); err != nil {
			return partial(err)
		}
		res.Congestion = disp.Stats()
		res.Link = disp.Link().Snapshot()
	}
	p.DigestInto(cfg.Golden)
	res.Cycles = p.VPCM.Cycle()
	res.VirtualS = p.VPCM.Time()
	res.Wall = time.Since(start)
	res.Done = p.AllHalted()
	res.DFSEvents = p.VPCM.DFSEvents()
	res.FinalSnap = p.Snapshot()
	res.Report = p.Report()

	if res.Done && cfg.Workload.Verify != nil {
		if err := cfg.Workload.Verify(p.ReadSharedWord); err != nil {
			return res, fmt.Errorf("core: workload verification: %w", err)
		}
	}
	return res, nil
}

// FreqHistory exposes the VPCM DFS trace of a finished platform run; the
// co-emulator records frequencies per sample, which is usually enough, but
// detailed traces can be taken from the platform directly.
type FreqHistory = vpcm.FreqChange
