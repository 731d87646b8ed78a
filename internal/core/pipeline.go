package core

// The pipelined co-emulation loop: the software analogue of the paper's
// HW/SW overlap. On the FPGA the emulator keeps running at speed while the
// host PC integrates temperatures concurrently, and the VPCM freezes the
// virtual clock only when the link or the solver genuinely falls behind
// (Section 4.2, Table 3). The serial loop in coemulator.go instead blocks
// the emulation for every thermal solve. Here the loop is split into two
// stages connected by a bounded hand-off queue of PipelineDepth windows:
//
//	emulate stage (this goroutine)       solve stage (one goroutine)
//	┌──────────────────────────┐  work   ┌───────────────────────────┐
//	│ step window, snapshot,   │ ──────► │ dispatch stats (link or   │
//	│ power eval, golden digest│         │ in-process), thermal step,│
//	│ apply delayed feedback   │ ◄────── │ sensors, TM policy        │
//	└──────────────────────────┘  done   └───────────────────────────┘
//
// Determinism contract: the feedback of window N (DFS action and component
// temperatures for leakage) is applied at the fixed window boundary before
// window N+depth+1 emulates — a sensor latency of `depth` windows relative
// to the serial loop. Window boundaries therefore depend only on emulated
// state, never on host timing: pipelined runs are bit-reproducible run to
// run, and with TM feedback off (no DFS, no leakage) they are
// digest-identical to serial runs. Backpressure — the solver lagging so far
// that the queue fills — only freezes *physical* time via
// vpcm.ThermalLagSource, mirroring the Ethernet congestion freeze.
//
// Buffer ownership: depth+1 window jobs circulate free → work → done →
// free. A job is written by the emulate stage (snapshot, powers), handed
// off, written by the solve stage (temps, sensors, policy verdict), handed
// back, and read/recycled at the feedback boundary. Channel hand-off
// provides the happens-before edges, so no other synchronisation is
// needed, and the steady-state loop allocates nothing.

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

func (a asyncFreezer) RequestFreeze(string) {}
func (a asyncFreezer) ReleaseFreeze(string) {}
func (a asyncFreezer) AddFrozenTime(physCycles uint64) { a.v.AddFrozenTime(physCycles) }
func (a asyncFreezer) AddFrozenTimeSource(source string, physCycles uint64) {
	a.v.AddFrozenTimeSource(source, physCycles)
}

// window is one in-flight sampling window of the pipeline.
type window struct {
	seq      uint64 // 1-based window number
	windowPs uint64 // thermal integration span (time-scaled)
	snap     emu.Snapshot
	powers   []float64 // per-component dynamic+static power, W
	powerUW  []uint32  // link encoding of powers
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

// runPipelined executes the co-emulation loop with a pipeline of the
// configured depth. The platform is already built and loaded; disp is nil
// in in-process mode.
func runPipelined(cfg Config, p *emu.Platform, eval *PowerEvaluator,
	disp *etherlink.Dispatcher, maxCycles uint64, tscale float64,
	onSample func(Sample), ck *ckptRuntime, resumedMax float64) (*Result, error) {

	depth := cfg.PipelineDepth
	ncomp := cfg.Host.NumComponents()
	free := make(chan *window, depth+1)
	for i := 0; i < depth+1; i++ {
		free <- &window{
			powers:  make([]float64, ncomp),
			powerUW: make([]uint32, ncomp),
		}
	}
	work := make(chan *window, depth)
	done := make(chan *window, depth+1)
	go solveStage(cfg, disp, work, done)

	res := &Result{MaxTempK: resumedMax}
	start := time.Now()
	var snap0 emu.Snapshot
	p.SnapshotInto(&snap0)
	prev := &snap0
	var committed emu.Snapshot
	snap0.CopyInto(&committed)
	// lagTemps is the evaluator-owned copy of the last applied component
	// temperatures (the job buffer is recycled after the boundary).
	lagTemps := make([]float64, 0, ncomp)

	var (
		seq     uint64 // windows emulated and handed off
		applied uint64 // window feedbacks consumed
	)

	// recvFeedback blocks on the next solved window. An empty done queue
	// means the solver is behind and the bounded queue has filled: virtual
	// time freezes for the wait, attributed to vpcm.ThermalLagSource.
	recvFeedback := func() (*window, bool) {
		select {
		case w, ok := <-done:
			return w, ok
		default:
		}
		t0 := time.Now()
		p.VPCM.RequestFreeze(vpcm.ThermalLagSource)
		w, ok := <-done
		p.VPCM.ReleaseFreeze(vpcm.ThermalLagSource)
		phys := uint64(time.Since(t0).Seconds() * float64(p.VPCM.PhysHz()))
		p.VPCM.AddFrozenTimeSource(vpcm.ThermalLagSource, phys)
		return w, ok
	}

	// sendWork hands a window to the solve stage. A full queue means the
	// solver is a full pipeline behind: the wait freezes virtual time just
	// like recvFeedback's.
	sendWork := func(job *window) {
		select {
		case work <- job:
			return
		default:
		}
		t0 := time.Now()
		p.VPCM.RequestFreeze(vpcm.ThermalLagSource)
		work <- job
		p.VPCM.ReleaseFreeze(vpcm.ThermalLagSource)
		phys := uint64(time.Since(t0).Seconds() * float64(p.VPCM.PhysHz()))
		p.VPCM.AddFrozenTimeSource(vpcm.ThermalLagSource, phys)
	}

	// apply commits window w's feedback at the current window boundary:
	// DFS programs the VPCM, component temperatures feed the next power
	// evaluation (leakage), and the sample is emitted.
	apply := func(w *window) {
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
			sample.CompPowerW = append([]float64(nil), w.powers...)
			sample.CellTempK = append([]float64(nil), w.cellTemps...)
			sample.CompTempK = append([]float64(nil), w.compTemps...)
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
		ck.commit(w.compTemps)
		free <- w
	}

	// finishPartial tears the pipeline down after err and reports the last
	// committed window. workClosed tells whether close(work) already ran.
	finishPartial := func(err error, workClosed bool) (*Result, error) {
		if !workClosed {
			close(work)
		}
		for range done {
		}
		// The solver has exited (the drain above closed its output), so the
		// thermal model is quiescent and safe to snapshot for the flush.
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
		// Checkpoint boundary: drain every in-flight window so the platform
		// state and all committed feedback coincide — a pipeline flush —
		// then cut the checkpoint. The drain applies feedback earlier than
		// the steady-state schedule, so the cadence is part of the run's
		// determinism contract (see Config.CheckpointEvery).
		if ck.pending(seq - applied) {
			for applied < seq {
				w, ok := recvFeedback()
				if !ok {
					return finishPartial(fmt.Errorf("core: pipeline solver exited early"), false)
				}
				if w.err != nil {
					err := w.err
					free <- w
					return finishPartial(err, false)
				}
				apply(w)
			}
			if err := ck.write(false, res.MaxTempK); err != nil {
				return finishPartial(err, false)
			}
		}
		// Deterministic feedback boundary: before window seq+1 emulates,
		// window seq-depth's feedback must be in effect. (seq-applied is the
		// in-flight count; a checkpoint drain resets it to 0 and the
		// pipeline refills.)
		if seq-applied > uint64(depth) {
			w, ok := recvFeedback()
			if !ok {
				return finishPartial(fmt.Errorf("core: pipeline solver exited early"), false)
			}
			if w.err != nil {
				err := w.err
				free <- w
				return finishPartial(err, false)
			}
			apply(w)
		}

		job := <-free
		period := uint64(1e12) / p.VPCM.Frequency()
		n := cfg.WindowPs / period
		if n == 0 {
			n = 1
		}
		if left := maxCycles - p.VPCM.Cycle(); n > left {
			n = left
		}
		if cfg.Platform.Parallel {
			p.RunParallel(0, p.VPCM.Cycle()+n)
		} else {
			p.Step(n)
		}
		if err := p.Fault(); err != nil {
			free <- job
			return finishPartial(err, false)
		}
		p.SnapshotInto(&job.snap)
		emu.DigestSnapshot(cfg.Golden, job.snap)
		if _, err := eval.Powers(*prev, job.snap, job.powers); err != nil {
			free <- job
			return finishPartial(err, false)
		}
		job.windowPs = uint64(float64(job.snap.TimePs-prev.TimePs) * tscale)
		prev = &job.snap
		seq++
		job.seq = seq
		job.err = nil
		sendWork(job)
	}

	// Drain: the remaining min(depth, seq) in-flight windows still owe
	// their feedback; commit them in order at the final boundary.
	close(work)
	for applied < seq {
		w, ok := recvFeedback()
		if !ok {
			return finishPartial(fmt.Errorf("core: pipeline solver exited early"), true)
		}
		if w.err != nil {
			err := w.err
			free <- w
			return finishPartial(err, true)
		}
		apply(w)
	}
	for range done {
	}

	if disp != nil {
		if err := disp.SendCtrl(etherlink.CtrlStop, p.VPCM.Cycle()); err != nil {
			return finishPartial(err, true)
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

// solveStage is the pipeline's consumer: it dispatches each window's
// statistics (in-process call or Ethernet frames), converts the returned
// cell temperatures to component sensor readings, and runs the TM policy,
// recording the DFS verdict for the emulate stage to apply at the
// deterministic boundary. In transport mode, windows that queued up while
// the link was busy are shipped as one MsgStatsBatch frame. After a
// failure every subsequent window is bounced with the same error so the
// emulate stage observes it at the next boundary.
func solveStage(cfg Config, disp *etherlink.Dispatcher, work <-chan *window, done chan<- *window) {
	defer close(done)
	var failed error
	maxBatch := 1
	if disp != nil {
		maxBatch = etherlink.MaxStatsBatch(cfg.Host.NumComponents())
		if maxBatch > cfg.PipelineDepth {
			maxBatch = cfg.PipelineDepth
		}
	}
	var (
		pend   []*window
		batch  etherlink.StatsBatch
		treply etherlink.TempsBatch
		temps  etherlink.Temps
	)
	for w := range work {
		pend = append(pend[:0], w)
		for len(pend) < maxBatch {
			select {
			case w2, ok := <-work:
				if !ok {
					goto process
				}
				pend = append(pend, w2)
				continue
			default:
			}
			break
		}
	process:
		if failed == nil {
			failed = solveWindows(cfg, disp, pend, &batch, &treply, &temps)
		} else {
			for _, w := range pend {
				w.err = failed
			}
		}
		for _, w := range pend {
			done <- w
		}
	}
}

// solveWindows solves a run of consecutive windows. On error the failing
// and every later window carry w.err; earlier windows stay valid.
func solveWindows(cfg Config, disp *etherlink.Dispatcher, pend []*window,
	batch *etherlink.StatsBatch, treply *etherlink.TempsBatch, temps *etherlink.Temps) error {

	if disp == nil {
		for _, w := range pend {
			ct, err := cfg.Host.StepWindowInto(w.powers, float64(w.windowPs)*1e-12, w.cellTemps)
			if err != nil {
				return failFrom(pend, w, err)
			}
			w.cellTemps = ct
			finishWindow(cfg, w)
		}
		return nil
	}

	for _, w := range pend {
		for i, pw := range w.powers {
			w.powerUW[i] = uint32(pw*1e6 + 0.5)
		}
	}
	if len(pend) == 1 {
		w := pend[0]
		if err := disp.SendStats(&etherlink.Stats{
			Cycle: w.snap.Cycle, WindowPs: w.windowPs, PowerUW: w.powerUW,
		}); err != nil {
			return failFrom(pend, w, err)
		}
		if err := disp.RecvTempsInto(temps, nil); err != nil {
			return failFrom(pend, w, err)
		}
		w.cellTemps = kelvinInto(w.cellTemps, temps.MilliK)
		finishWindow(cfg, w)
		return nil
	}

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
	if err := disp.RecvTempsBatchInto(treply, nil); err != nil {
		return failFrom(pend, pend[0], err)
	}
	if len(treply.Windows) != len(pend) {
		return failFrom(pend, pend[0], fmt.Errorf(
			"core: host answered %d temperature windows for a %d-window batch",
			len(treply.Windows), len(pend)))
	}
	for i, w := range pend {
		w.cellTemps = kelvinInto(w.cellTemps, treply.Windows[i].MilliK)
		finishWindow(cfg, w)
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

// finishWindow derives the window's sensor readings and policy verdict
// from its fresh cell temperatures.
func finishWindow(cfg Config, w *window) {
	w.compTemps = cfg.Host.ComponentTempsInto(w.cellTemps, w.compTemps)
	w.maxTempK = 0
	for _, t := range w.cellTemps {
		if t > w.maxTempK {
			w.maxTempK = t
		}
	}
	w.setFreqHz = 0
	w.throttled = false
	if cfg.Policy != nil {
		if cap(w.sensors) < len(w.compTemps) {
			w.sensors = make([]tm.Sensor, 0, len(w.compTemps))
		}
		w.sensors = w.sensors[:0]
		for i, t := range w.compTemps {
			w.sensors = append(w.sensors, tm.Sensor{
				Name:  cfg.Host.FP.Components[i].Name,
				TempK: cfg.Sensor.Read(t),
			})
		}
		action := cfg.Policy.Update(w.sensors)
		w.setFreqHz = action.SetFreqHz
		if th, ok := cfg.Policy.(*tm.ThresholdDFS); ok {
			w.throttled = th.Throttled()
		}
	}
}
