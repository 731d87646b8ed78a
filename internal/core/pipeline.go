package core

// The co-emulation loop: the software analogue of the paper's HW/SW
// overlap. On the FPGA the emulator keeps running at speed while the host
// PC integrates temperatures concurrently, and the VPCM freezes the virtual
// clock only when the link or the solver genuinely falls behind (Section
// 4.2, Table 3). The loop is split into two stages connected by a bounded
// hand-off queue of PipelineDepth windows:
//
//	emulate stage (this goroutine)       solve stage
//	┌──────────────────────────┐  work   ┌───────────────────────────┐
//	│ step window, snapshot,   │ ──────► │ dispatch stats (link or   │
//	│ power eval, golden digest│         │ in-process), thermal step,│
//	│ apply delayed feedback   │ ◄────── │ sensors, TM policy        │
//	└──────────────────────────┘  done   └───────────────────────────┘
//
// Depth 0 is the synchronous case: the solve stage runs on the calling
// goroutine, so each window is solved and its feedback applied before the
// next one emulates. Depth > 0 runs the solve stage on its own goroutine.
//
// Determinism contract: the feedback of window N (DFS action and component
// temperatures for leakage) is applied at the fixed window boundary before
// window N+depth+1 emulates — a sensor latency of `depth` windows. Window
// boundaries therefore depend only on emulated state, never on host timing:
// runs are bit-reproducible run to run at every depth, and with TM feedback
// off (no DFS, no leakage) every depth is digest-identical to depth 0.
// Backpressure — the solver lagging so far that the queue fills — only
// freezes *physical* time via vpcm.ThermalLagSource, mirroring the Ethernet
// congestion freeze.
//
// Buffer ownership: window jobs form a ring indexed by window number. A job
// is written by the emulate stage (snapshot, powers), handed off, written by
// the solve stage (temps, sensors, policy verdict), handed back, and read at
// the feedback boundary; the ring slot is reused only after that. Channel
// hand-off provides the happens-before edges, so no other synchronisation
// is needed, and the steady-state loop allocates nothing.

import (
	"fmt"
	"time"

	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/tm"
	"thermemu/internal/vpcm"
)

// asyncFreezer adapts the VPCM for link backpressure accounting raised from
// the solve stage: frozen time lands in the (mutex-guarded) per-source
// totals, but the freeze flag itself — which the emulate stage polls
// unsynchronised on every Advance — is never toggled. The emulate stage
// raises its own thermal-lag freeze when the hand-off queue fills, which is
// when link stalls actually reach the virtual clock.
type asyncFreezer struct{ v *vpcm.VPCM }

func (a asyncFreezer) RequestFreeze(string)            {}
func (a asyncFreezer) ReleaseFreeze(string)            {}
func (a asyncFreezer) AddFrozenTime(physCycles uint64) { a.v.AddFrozenTime(physCycles) }
func (a asyncFreezer) AddFrozenTimeSource(source string, physCycles uint64) {
	a.v.AddFrozenTimeSource(source, physCycles)
}

// window is one in-flight sampling window.
type window struct {
	windowPs uint64 // thermal integration span (time-scaled)
	snap     emu.Snapshot
	powers   []float64 // per-component dynamic+static power, W
	powerUW  []uint32  // link encoding of powers (transport mode)
	// Solve-stage results.
	cellTemps []float64
	compTemps []float64
	sensors   []tm.Sensor
	maxTempK  float64
	setFreqHz uint64 // 0 = no DFS action
	throttled bool
	err       error
}

// thermalLagPs extracts the thermal-lag frozen time from the VPCM.
func thermalLagPs(v *vpcm.VPCM) uint64 {
	for _, e := range v.FrozenPsBySource() {
		if e.Source == vpcm.ThermalLagSource {
			return e.Ps
		}
	}
	return 0
}

// stage is the solve stage as the emulate stage sees it: submit hands a
// window off, next returns the oldest submitted window once solved, stop
// tears the stage down. At depth 0 (work == nil) submit solves in place.
type stage struct {
	v          *vpcm.VPCM
	sv         *solver
	ready      *window // depth 0: the window solved by the last submit
	work, done chan *window
	stopped    bool
}

func newStage(cfg Config, disp *etherlink.Dispatcher, v *vpcm.VPCM) *stage {
	st := &stage{v: v, sv: &solver{host: cfg.Host, policy: cfg.Policy, sensor: cfg.Sensor,
		disp: disp, maxBatch: 1}}
	if depth := cfg.PipelineDepth; depth > 0 {
		if disp != nil {
			st.sv.maxBatch = min(etherlink.MaxStatsBatch(cfg.Host.NumComponents()),
				etherlink.MaxTempsBatch(len(cfg.Host.SiCells)), depth)
		}
		st.work = make(chan *window, depth)
		st.done = make(chan *window, depth+1)
		go st.sv.run(st.work, st.done)
	}
	return st
}

// submit hands window w to the solve stage. At depth > 0 a full queue
// means the solver is a full pipeline behind: the wait freezes virtual
// time.
func (st *stage) submit(w *window) {
	if st.work == nil {
		st.sv.solve([]*window{w})
		st.ready = w
		return
	}
	select {
	case st.work <- w:
	default:
		st.lagFrozen(func() { st.work <- w })
	}
}

// next returns the oldest solved window (ok is false if the solve stage
// exited). At depth > 0 an empty done queue means the solver is behind:
// virtual time freezes for the wait.
func (st *stage) next() (w *window, ok bool) {
	if st.work == nil {
		w, st.ready = st.ready, nil
		return w, w != nil
	}
	select {
	case w, ok = <-st.done:
	default:
		st.lagFrozen(func() { w, ok = <-st.done })
	}
	return w, ok
}

// lagFrozen runs a blocking hand-off with the virtual clock frozen under
// vpcm.ThermalLagSource, and accounts the physical time it took.
func (st *stage) lagFrozen(wait func()) {
	t0 := time.Now()
	st.v.RequestFreeze(vpcm.ThermalLagSource)
	wait()
	st.v.ReleaseFreeze(vpcm.ThermalLagSource)
	phys := uint64(time.Since(t0).Seconds() * float64(st.v.PhysHz()))
	st.v.AddFrozenTimeSource(vpcm.ThermalLagSource, phys)
}

// stop closes the work queue and waits for the solver goroutine to exit,
// discarding windows it still returns. Safe to call more than once.
func (st *stage) stop() {
	if st.work == nil || st.stopped {
		return
	}
	st.stopped = true
	close(st.work)
	for range st.done {
	}
}

// runLoop executes the co-emulation loop at the configured pipeline depth,
// advancing the platform by each window's cycle count with step (the fast
// kernel's Platform.Step or the MPARM baseline's Kernel.Step). The platform
// is already built and loaded; disp is nil in in-process mode.
func runLoop(cfg Config, p *emu.Platform, step func(uint64), eval *PowerEvaluator,
	disp *etherlink.Dispatcher, onSample func(Sample), ck *ckptRuntime, resumedMax float64) (*Result, error) {

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	tscale := cfg.ThermalTimeScale
	if tscale <= 0 {
		tscale = 1
	}
	depth := uint64(cfg.PipelineDepth)
	ncomp := cfg.Host.NumComponents()
	// Window k reuses the ring slot of window k-len(jobs), whose feedback
	// the boundary rule applied before window k-1 ended, while window k-1's
	// snapshot stays the power baseline: depth+1 slots, and at least two.
	jobs := make([]*window, max(depth+1, 2))
	for i := range jobs {
		jobs[i] = &window{powers: make([]float64, ncomp)}
	}
	st := newStage(cfg, disp, p.VPCM)

	res := &Result{MaxTempK: resumedMax}
	start := time.Now()
	// The initial snapshot, window 1's power baseline, lives in the last
	// ring slot: window len(jobs) is the first to reuse it.
	prev := &jobs[len(jobs)-1].snap
	p.SnapshotInto(prev)
	// committed is the last fully-solved window; an abort reports it
	// instead of the half-stepped platform state.
	var committed emu.Snapshot
	prev.CopyInto(&committed)
	// lagTemps is the evaluator-owned copy of the last applied component
	// temperatures (the job buffer is reused after the boundary).
	lagTemps := make([]float64, 0, ncomp)

	var (
		seq     uint64 // windows emulated and handed off
		applied uint64 // window feedbacks consumed
	)

	// applyNext commits the oldest in-flight window's feedback at the
	// current window boundary: DFS programs the VPCM, component
	// temperatures feed the next power evaluation (leakage), and the sample
	// is emitted.
	applyNext := func() error {
		w, ok := st.next()
		if !ok {
			return fmt.Errorf("core: pipeline solver exited early")
		}
		if w.err != nil {
			return w.err
		}
		if w.setFreqHz != 0 {
			p.VPCM.SetFrequency(w.setFreqHz)
		}
		lagTemps = append(lagTemps[:0], w.compTemps...)
		eval.SetComponentTemps(lagTemps)
		sample := Sample{
			Cycle:     w.snap.Cycle,
			TimePs:    w.snap.TimePs,
			FreqHz:    w.snap.FreqHz,
			MaxTempK:  w.maxTempK,
			Throttled: w.throttled,
		}
		if cfg.DiscardSamples {
			// The sample's slices are reused buffers: valid only while the
			// callback runs (documented on Config.DiscardSamples).
			sample.CompPowerW = w.powers
			sample.CellTempK = w.cellTemps
			sample.CompTempK = w.compTemps
		} else {
			// The kept sample takes over the window's temperature buffers;
			// the next solve into this ring slot allocates fresh ones.
			sample.CompPowerW = append([]float64(nil), w.powers...)
			sample.CellTempK, w.cellTemps = w.cellTemps, nil
			sample.CompTempK, w.compTemps = w.compTemps, nil
			res.Samples = append(res.Samples, sample)
		}
		if w.maxTempK > res.MaxTempK {
			res.MaxTempK = w.maxTempK
		}
		if onSample != nil {
			onSample(sample)
		}
		w.snap.CopyInto(&committed)
		applied++
		ck.commit(sample.CompTempK)
		return nil
	}

	// finishPartial tears the solve stage down after err and reports the
	// last committed window.
	finishPartial := func(err error) (*Result, error) {
		st.stop()
		// The solver has exited, so the thermal model is quiescent and safe
		// to snapshot for the flush.
		err = ck.flushPartial(err, res.MaxTempK)
		res.Partial = true
		res.FinalSnap = committed
		res.Cycles = committed.Cycle
		res.VirtualS = float64(committed.TimePs) * 1e-12
		res.Wall = time.Since(start)
		res.DFSEvents = p.VPCM.DFSEvents()
		res.ThermalLagPs = thermalLagPs(p.VPCM)
		if disp != nil {
			res.Congestion = disp.Stats()
			res.Link = disp.Link().Snapshot()
		}
		return res, err
	}

	for !p.AllHalted() && p.VPCM.Cycle() < maxCycles {
		// One sampling window at the current virtual frequency.
		job := jobs[seq%uint64(len(jobs))]
		period := uint64(1e12) / p.VPCM.Frequency()
		n := cfg.WindowPs / period
		if n == 0 {
			n = 1
		}
		if left := maxCycles - p.VPCM.Cycle(); n > left {
			n = left
		}
		step(n)
		if err := p.Fault(); err != nil {
			return finishPartial(err)
		}
		p.SnapshotInto(&job.snap)
		emu.DigestSnapshot(cfg.Golden, job.snap)
		if disp != nil && cfg.Platform.EventLogging {
			// Depth 0 only (Run rejects event logging in a pipeline): the
			// sniffer ring drains through the link at the window boundary.
			if _, err := disp.PumpEvents(p.Ring); err != nil {
				return finishPartial(err)
			}
		}
		if _, err := eval.Powers(*prev, job.snap, job.powers); err != nil {
			return finishPartial(err)
		}
		job.windowPs = uint64(float64(job.snap.TimePs-prev.TimePs) * tscale)
		job.err = nil
		prev = &job.snap
		seq++
		st.submit(job)

		// Feedback boundary: before window seq+1 emulates, window
		// seq-depth's feedback must be in effect (seq-applied is the
		// in-flight count). When the windows emulated so far reach a
		// checkpoint cadence multiple, every in-flight window drains first —
		// a pipeline flush — so the platform state and all committed
		// feedback coincide; the pipeline then refills.
		cut := ck.pending(seq - applied)
		keep := depth
		if cut {
			keep = 0
		}
		for seq-applied > keep {
			if err := applyNext(); err != nil {
				return finishPartial(err)
			}
		}
		if cut {
			if err := ck.write(false, res.MaxTempK); err != nil {
				return finishPartial(err)
			}
		}
	}

	// Drain: the remaining min(depth, seq) in-flight windows still owe
	// their feedback; commit them in order at the final boundary.
	for applied < seq {
		if err := applyNext(); err != nil {
			return finishPartial(err)
		}
	}
	st.stop()

	if disp != nil {
		if err := disp.SendCtrl(etherlink.CtrlStop, p.VPCM.Cycle()); err != nil {
			return finishPartial(err)
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
	res.ThermalLagPs = thermalLagPs(p.VPCM)
	res.FinalSnap = p.Snapshot()
	res.Report = p.Report()

	if res.Done && cfg.Workload.Verify != nil {
		if err := cfg.Workload.Verify(p.ReadSharedWord); err != nil {
			return res, fmt.Errorf("core: workload verification: %w", err)
		}
	}
	return res, nil
}

// solver dispatches each window's statistics (in-process call or Ethernet
// frames), converts the returned cell temperatures to component sensor
// readings, and runs the TM policy, recording the DFS verdict for the
// emulate stage to apply at the deterministic boundary. Its link buffers
// are reused across windows.
type solver struct {
	host     *ThermalHost
	policy   tm.Policy
	sensor   tm.SensorModel
	disp     *etherlink.Dispatcher
	maxBatch int

	pend   []*window
	batch  etherlink.StatsBatch
	treply etherlink.TempsBatch
	temps  etherlink.Temps
}

// run is the pipelined solve stage's goroutine. In transport mode, windows
// that queued up while the link was busy are shipped as one MsgStatsBatch
// frame, as many as the statistics and the temperature reply both fit one
// frame. After a failure every subsequent window is bounced with the same
// error so the emulate stage observes it at the next boundary.
func (sv *solver) run(work <-chan *window, done chan<- *window) {
	defer close(done)
	var failed error
	for w := range work {
		sv.pend = append(sv.pend[:0], w)
		for len(sv.pend) < sv.maxBatch {
			select {
			case w2, ok := <-work:
				if !ok {
					goto process
				}
				sv.pend = append(sv.pend, w2)
				continue
			default:
			}
			break
		}
	process:
		if failed == nil {
			failed = sv.solve(sv.pend)
		} else {
			for _, w := range sv.pend {
				w.err = failed
			}
		}
		for _, w := range sv.pend {
			done <- w
		}
	}
}

// solve solves a run of consecutive windows. On error the failing and
// every later window carry w.err; earlier windows stay valid.
func (sv *solver) solve(pend []*window) error {
	disp := sv.disp
	if disp == nil {
		for _, w := range pend {
			ct, err := sv.host.StepWindowInto(w.powers, float64(w.windowPs)*1e-12, w.cellTemps)
			if err != nil {
				return failFrom(pend, w, err)
			}
			w.cellTemps = ct
			sv.finish(w)
		}
		return nil
	}

	for _, w := range pend {
		w.powerUW = w.powerUW[:0]
		for _, pw := range w.powers {
			w.powerUW = append(w.powerUW, uint32(pw*1e6+0.5))
		}
	}
	if len(pend) == 1 {
		w := pend[0]
		if err := disp.SendStats(&etherlink.Stats{
			Cycle: w.snap.Cycle, WindowPs: w.windowPs, PowerUW: w.powerUW,
		}); err != nil {
			return failFrom(pend, w, err)
		}
		if err := disp.RecvTempsInto(&sv.temps, nil); err != nil {
			return failFrom(pend, w, err)
		}
		w.cellTemps = kelvinInto(w.cellTemps, sv.temps.MilliK)
		sv.finish(w)
		return nil
	}

	batch := &sv.batch
	if cap(batch.Windows) < len(pend) {
		batch.Windows = make([]etherlink.Stats, len(pend))
	}
	batch.Windows = batch.Windows[:len(pend)]
	for i, w := range pend {
		batch.Windows[i] = etherlink.Stats{
			Cycle: w.snap.Cycle, WindowPs: w.windowPs, PowerUW: w.powerUW,
		}
	}
	if err := disp.SendStatsBatch(batch); err != nil {
		return failFrom(pend, pend[0], err)
	}
	if err := disp.RecvTempsBatchInto(&sv.treply, nil); err != nil {
		return failFrom(pend, pend[0], err)
	}
	if len(sv.treply.Windows) != len(pend) {
		return failFrom(pend, pend[0], fmt.Errorf(
			"core: host answered %d temperature windows for a %d-window batch",
			len(sv.treply.Windows), len(pend)))
	}
	for i, w := range pend {
		w.cellTemps = kelvinInto(w.cellTemps, sv.treply.Windows[i].MilliK)
		sv.finish(w)
	}
	return nil
}

// failFrom marks w and every window after it in pend with err.
func failFrom(pend []*window, w *window, err error) error {
	mark := false
	for _, x := range pend {
		if x == w {
			mark = true
		}
		if mark {
			x.err = err
		}
	}
	return err
}

// kelvinInto converts quantised millikelvin into a reused float buffer.
func kelvinInto(dst []float64, milliK []uint32) []float64 {
	if cap(dst) < len(milliK) {
		dst = make([]float64, len(milliK))
	}
	dst = dst[:len(milliK)]
	for i, v := range milliK {
		dst[i] = float64(v) / 1000
	}
	return dst
}

// finish derives the window's sensor readings and policy verdict from its
// fresh cell temperatures.
func (sv *solver) finish(w *window) {
	w.compTemps = sv.host.ComponentTempsInto(w.cellTemps, w.compTemps)
	w.maxTempK = 0
	for _, t := range w.cellTemps {
		if t > w.maxTempK {
			w.maxTempK = t
		}
	}
	w.setFreqHz = 0
	w.throttled = false
	if sv.policy != nil {
		if cap(w.sensors) < len(w.compTemps) {
			w.sensors = make([]tm.Sensor, 0, len(w.compTemps))
		}
		w.sensors = w.sensors[:0]
		for i, t := range w.compTemps {
			w.sensors = append(w.sensors, tm.Sensor{
				Name:  sv.host.FP.Components[i].Name,
				TempK: sv.sensor.Read(t),
			})
		}
		action := sv.policy.Update(w.sensors)
		w.setFreqHz = action.SetFreqHz
		if th, ok := sv.policy.(*tm.ThresholdDFS); ok {
			w.throttled = th.Throttled()
		}
	}
}
