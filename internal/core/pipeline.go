package core

// The co-emulation loop: the software analogue of the paper's HW/SW
// overlap. On the FPGA the emulator keeps running at speed while the host
// PC integrates temperatures concurrently, and the VPCM freezes the virtual
// clock only when the link or the solver genuinely falls behind (Section
// 4.2, Table 3). Here a freeze is accounting: the goroutine that waits is
// the one that would advance the clock, and it adds the wait to the VPCM
// as frozen time under a named source. The loop is split into two stages
// connected by a bounded hand-off queue; the solve stage always runs on its
// own goroutine:
//
//	emulate stage (this goroutine)       solve stage
//	┌──────────────────────────┐  work   ┌───────────────────────────┐
//	│ step window, snapshot,   │ ──────► │ dispatch stats (link or   │
//	│ power eval, golden digest│         │ in-process), thermal step,│
//	│ apply delayed feedback   │ ◄────── │ sensors, TM policy        │
//	└──────────────────────────┘  done   └───────────────────────────┘
//
// Determinism contract: the feedback of window N (DFS action and component
// temperatures for leakage) is applied at the fixed window boundary where
// window N+depth+1 begins — a sensor latency of `depth` windows. Window
// boundaries therefore depend only on emulated state, never on host timing:
// runs are bit-reproducible run to run at every depth, and with TM feedback
// off (no DFS, no leakage) every depth is digest-identical to depth 0.
//
// Depth 0 applies each window's feedback at the very next boundary, yet
// still overlaps. A verdict changes only the virtual frequency, which the
// emulated platform never reads: the VPCM maps cycles to picoseconds, and
// memory suppression counts physical cycles. So while window N solves, the
// emulate stage runs the part of window N+1 that every verdict agrees on:
// its floor span, the window's cycle count at the lower of the current
// frequency and the policy's tm.Policy.FloorHz, stopped early by MaxCycles
// or a halt. No verdict at or above the floor makes window N+1 shorter, so
// the span never passes its end. The verdict is then applied at the
// boundary with vpcm.SetFrequencyAt, which re-times the cycles run since,
// and window N+1 is finished, or snapshotted in place when the span was the
// whole of it (always so with no policy).
//
// The result is identical to emulating, solving and applying strictly in
// turn, and so is Result.OverlapCycles, the cycles emulated while a verdict
// was outstanding: it never depends on host timing. A verdict below the
// floor aborts the run, and a core fault is checked at the window end, as
// in serial order. A window that cuts a checkpoint overlaps nothing (the
// checkpoint needs the platform at its boundary). The link changes none of
// this: the dispatcher on the solve stage only accounts its congestion and
// resend stalls as frozen time, which the VPCM guards for a concurrent
// Advance. Nothing overlaps for a policy whose floor is unknown.
//
// Above depth 0, backpressure — the solver lagging so far that the queue
// fills — only freezes *physical* time via vpcm.ThermalLagSource,
// mirroring the Ethernet congestion freeze.
//
// Buffer ownership: window jobs form a ring indexed by window number. A job
// is written by the emulate stage (snapshot, powers), handed off, written by
// the solve stage (temps, sensors, policy verdict), handed back, and read at
// the feedback boundary; the ring slot is reused only after that. Channel
// hand-off provides the happens-before edges, so no other synchronisation
// is needed, and the steady-state loop allocates nothing. During the solve
// the emulate stage touches only the platform and the VPCM, and the solve
// stage only the thermal host and the policy.

import (
	"fmt"
	"math"
	"time"

	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/tm"
	"thermemu/internal/vpcm"
)

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

// thermalLagPs extracts the thermal-lag frozen time from a member's clock.
func thermalLagPs(v *vpcm.View) uint64 {
	for _, e := range v.FrozenPsBySource() {
		if e.Source == vpcm.ThermalLagSource {
			return e.Ps
		}
	}
	return 0
}

// stage is the solve stage as the emulate stage sees it: submit hands a
// window off, next returns the oldest submitted window once solved, stop
// tears the stage down. The solve always runs on the stage's goroutine.
type stage struct {
	clock      *vpcm.View
	sv         *solver
	work, done chan *window
	// wait is the wall time next blocked on a verdict at depth 0.
	wait    time.Duration
	lag     bool // waits freeze virtual time (depth > 0)
	stopped bool
}

func newStage(cfg *Config, disp *etherlink.Dispatcher, clock *vpcm.View) *stage {
	depth := cfg.PipelineDepth
	st := &stage{clock: clock, sv: &solver{host: cfg.Host, policy: cfg.Policy,
		disp: disp, maxBatch: 1}, lag: depth > 0}
	if disp != nil && depth > 0 {
		st.sv.maxBatch = min(etherlink.MaxStatsBatch(cfg.Host.NumComponents()),
			etherlink.MaxTempsBatch(len(cfg.Host.SiCells)), depth)
	}
	st.work = make(chan *window, max(depth, 1))
	st.done = make(chan *window, depth+1)
	go st.sv.run(st.work, st.done)
	return st
}

// submit hands window w to the solve stage. At depth > 0 a full queue
// means the solver is a full pipeline behind: the wait freezes virtual
// time.
func (st *stage) submit(w *window) {
	select {
	case st.work <- w:
	default:
		st.lagFrozen(func() { st.work <- w })
	}
}

// next returns the oldest solved window (ok is false if the solve stage
// exited). At depth > 0 an empty done queue means the solver is behind:
// virtual time freezes for the wait. At depth 0 the wait is the window
// boundary's own synchronous solve, which virtual time does not see; its
// wall time adds to wait.
func (st *stage) next() (w *window, ok bool) {
	select {
	case w, ok = <-st.done:
		return w, ok
	default:
	}
	if st.lag {
		st.lagFrozen(func() { w, ok = <-st.done })
		return w, ok
	}
	t0 := time.Now()
	w, ok = <-st.done
	st.wait += time.Since(t0)
	return w, ok
}

// lagFrozen runs a blocking hand-off and accounts the physical time it
// took as frozen under vpcm.ThermalLagSource: the emulate stage, which
// alone advances the clock, is the goroutine that waits.
func (st *stage) lagFrozen(wait func()) {
	t0 := time.Now()
	wait()
	phys := uint64(time.Since(t0).Seconds() * float64(st.clock.PhysHz()))
	st.clock.AddFrozenTimeSource(vpcm.ThermalLagSource, phys)
}

// stop closes the work queue and waits for the solver goroutine to exit,
// discarding windows it still returns. Safe to call more than once.
func (st *stage) stop() {
	if st.stopped {
		return
	}
	st.stopped = true
	close(st.work)
	for range st.done {
	}
}

// windowCycles is the cycle count of one sampling window at hz (at least
// one cycle).
func windowCycles(windowPs, hz uint64) uint64 {
	return max(windowPs/(uint64(1e12)/hz), 1)
}

// The group loop. A group is one or more co-emulations (members) over one
// platform: the members differ in what never feeds back into the emulated
// platform — TM policy, thermal host, window feedback — so they all see
// the same cycle-by-cycle trajectory, and the platform is stepped once for
// all of them. What depends on the virtual frequency is per member: its
// vpcm.View (frequency, virtual time, DFS history, frozen time), power
// evaluator, solve stage, policy, checkpoints and golden digest. A single
// run (Run) is a group of one.
//
// Each member is in one of two states, each with a target cycle the
// platform must reach before the member can move on:
//
//   - window open: the target is the window's end at the member's current
//     frequency, from its boundary (capped by MaxCycles);
//   - verdict pending: the window was handed off, and the target is its
//     boundary plus the floor span every verdict agrees on (0 when the
//     member may not overlap: a checkpoint cut, a halt, MaxCycles, depth
//     above 0 or an unknown floor).
//
// The loop steps the platform to the lowest target of all members, so it
// never passes a cycle some member has not decided on (conservative
// lockstep), then moves every member whose target it reached — or every
// member, once the platform halts — in member order: first each open
// window closes (snapshot, power, digest, hand-off), so all the members'
// solves run together; then each pending member waits for its verdict,
// applies it at its boundary and opens its next window. A member moves
// through exactly the states, at exactly the cycles, its solo run would,
// so each member's samples, digest, OverlapCycles and checkpoints are
// those of a solo Run of its Config. A member that fails finishes with a
// partial result while the others go on.

// member is one co-emulation of a group.
type member struct {
	// cfg is the member's own copy, with MaxCycles and ThermalTimeScale
	// defaults filled in.
	cfg      Config
	onSample func(Sample)
	clock    *vpcm.View
	eval     *PowerEvaluator
	disp     *etherlink.Dispatcher
	ck       *ckptRuntime
	st       *stage
	// floorHz is the lowest frequency a verdict can set; with no policy
	// none is set. An unknown floor (0) turns the depth-0 overlap off.
	floorHz uint64

	// Window k reuses the ring slot of window k-len(jobs), whose feedback
	// the boundary rule applied before window k-1 ended, while window
	// k-1's snapshot stays the power baseline: depth+1 slots, and at least
	// two.
	jobs []*window
	// committed is the last fully-solved window; an abort reports it
	// instead of the half-stepped platform state.
	committed emu.Snapshot
	// lagTemps is the evaluator-owned copy of the last applied component
	// temperatures (the job buffer is reused after the boundary).
	lagTemps []float64

	seq     uint64 // windows emulated and handed off
	applied uint64 // window feedbacks consumed
	// The window boundary: where the last handed-off window ended and the
	// next one begins, even when its floor span already ran. Feedback
	// applies here.
	bCycle, bTimePs uint64

	target  uint64 // the platform cycle the member waits for
	pending bool   // a window was handed off and its feedback is due
	cut     bool   // the boundary cuts a checkpoint
	done    bool

	res   *Result
	start time.Time
	err   error
}

// init sets the member's loop state up over the platform p, whose VPCM's
// View in use is the member's clock; m.cfg, m.ck and m.disp are already
// set.
func (m *member) init(onSample func(Sample), p *emu.Platform, eval *PowerEvaluator, resumedMax float64) {
	cfg := &m.cfg
	m.onSample, m.clock, m.eval = onSample, p.VPCM.View(), eval
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 62
	}
	if cfg.ThermalTimeScale <= 0 {
		cfg.ThermalTimeScale = 1
	}
	m.floorHz = math.MaxUint64
	if cfg.Policy != nil {
		m.floorHz = cfg.Policy.FloorHz()
	}
	ncomp := cfg.Host.NumComponents()
	m.jobs = make([]*window, max(cfg.PipelineDepth+1, 2))
	for i := range m.jobs {
		m.jobs[i] = &window{powers: make([]float64, ncomp)}
	}
	m.st = newStage(cfg, m.disp, m.clock)
	m.res = &Result{MaxTempK: resumedMax}
	m.start = time.Now()
	prev := m.prev()
	p.SnapshotInto(prev)
	prev.CopyInto(&m.committed)
	m.lagTemps = make([]float64, 0, ncomp)
	m.bCycle, m.bTimePs = p.VPCM.Cycle(), p.VPCM.TimePs()
}

// prev is the power baseline of the next window: the snapshot of the
// last window handed off, which lives in the ring slot before the next
// one's. The initial snapshot, window 1's baseline, lives in the last
// slot: window len(jobs) is the first to reuse it.
func (m *member) prev() *emu.Snapshot {
	n := uint64(len(m.jobs))
	return &m.jobs[(m.seq+n-1)%n].snap
}

// due reports whether the member can move with the platform at its cycle.
func (m *member) due(p *emu.Platform) bool {
	return !m.done && (p.VPCM.Cycle() >= m.target || p.AllHalted())
}

// open starts the member's next window at its boundary, or finishes the
// member when no window remains. A window remains while its floor span
// already ran, or the platform can still run.
func (m *member) open(p *emu.Platform) {
	cycle := p.VPCM.Cycle()
	maxCycles := m.cfg.MaxCycles
	if cycle <= m.bCycle && (p.AllHalted() || cycle >= maxCycles) {
		m.finish(p)
		return
	}
	// One sampling window at the current virtual frequency, from the
	// boundary on. Its floor span may already have run while the previous
	// window solved; it never runs past the window's end.
	end := m.bCycle + min(windowCycles(m.cfg.WindowPs, m.clock.Frequency()), maxCycles-m.bCycle)
	if p.AllHalted() {
		end = min(end, cycle)
	}
	if end < cycle {
		m.abort(p, fmt.Errorf("core: the platform ran to cycle %d, past the window that ends at cycle %d", cycle, end))
		return
	}
	m.pending, m.target = false, end
}

// closeWindow ends the member's open window where the platform stands:
// snapshot, fault check, digest, power evaluation and hand-off to the
// solve stage. The member then waits for the window's feedback at its
// boundary; at depth 0 the platform may first run the next window's floor
// span, which every verdict agrees on. A checkpoint cut needs the platform
// at the boundary, so it waits.
func (m *member) closeWindow(p *emu.Platform) {
	job, prev := m.jobs[m.seq%uint64(len(m.jobs))], m.prev()
	p.SnapshotInto(&job.snap)
	if err := p.Fault(); err != nil {
		m.abort(p, err)
		return
	}
	emu.DigestSnapshot(m.cfg.Golden, job.snap)
	if _, err := m.eval.Powers(*prev, job.snap, job.powers); err != nil {
		m.abort(p, err)
		return
	}
	job.windowPs = uint64(float64(job.snap.TimePs-prev.TimePs) * m.cfg.ThermalTimeScale)
	job.err = nil
	m.seq++
	m.st.submit(job)
	m.bCycle, m.bTimePs = job.snap.Cycle, job.snap.TimePs

	// Feedback boundary: before window seq+1 emulates, window seq-depth's
	// feedback must be in effect (seq-applied is the in-flight count).
	// When the windows emulated so far reach a checkpoint cadence
	// multiple, every in-flight window drains first — a pipeline flush —
	// so the platform state and all committed feedback coincide; the
	// pipeline then refills.
	m.cut = m.ck.pending(m.seq - m.applied)
	m.pending, m.target = true, m.bCycle
	overlap := m.cfg.PipelineDepth == 0 && m.floorHz != 0
	if maxCycles := m.cfg.MaxCycles; overlap && !m.cut && !p.AllHalted() && m.bCycle < maxCycles {
		m.target += min(windowCycles(m.cfg.WindowPs, min(m.clock.Frequency(), m.floorHz)), maxCycles-m.bCycle)
	}
}

// settle applies the due feedback at the member's boundary, cuts a due
// checkpoint and opens the next window.
func (m *member) settle(p *emu.Platform) {
	m.res.OverlapCycles += p.VPCM.Cycle() - m.bCycle
	keep := uint64(m.cfg.PipelineDepth) // in-flight windows left unapplied
	if m.cut {
		keep = 0
	}
	for m.seq-m.applied > keep {
		if err := m.applyNext(); err != nil {
			m.abort(p, err)
			return
		}
	}
	if m.cut {
		if err := m.ck.write(false, m.res.MaxTempK); err != nil {
			m.abort(p, err)
			return
		}
	}
	m.open(p)
}

// advance moves the member as far as the platform's cycle allows.
func (m *member) advance(p *emu.Platform) {
	p.VPCM.Use(m.clock)
	for m.due(p) {
		if m.pending {
			m.settle(p)
		} else {
			m.closeWindow(p)
		}
	}
}

// applyNext commits the oldest in-flight window's feedback at the current
// window boundary: DFS programs the member's clock (re-timing any cycles
// already run past the boundary), component temperatures feed the next
// power evaluation (leakage), and the sample is emitted.
func (m *member) applyNext() error {
	w, ok := m.st.next()
	if !ok {
		return fmt.Errorf("core: pipeline solver exited early")
	}
	if w.err != nil {
		return w.err
	}
	if w.setFreqHz != 0 {
		if w.setFreqHz < m.floorHz {
			return fmt.Errorf("core: policy %s set %d Hz, below its floor %d Hz",
				m.cfg.Policy.Name(), w.setFreqHz, m.floorHz)
		}
		m.clock.SetFrequencyAt(m.bCycle, m.bTimePs, w.setFreqHz)
	}
	m.lagTemps = append(m.lagTemps[:0], w.compTemps...)
	m.eval.SetComponentTemps(m.lagTemps)
	sample := Sample{
		Cycle:     w.snap.Cycle,
		TimePs:    w.snap.TimePs,
		FreqHz:    w.snap.FreqHz,
		MaxTempK:  w.maxTempK,
		Throttled: w.throttled,
	}
	res := m.res
	if m.cfg.DiscardSamples {
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
	if m.onSample != nil {
		m.onSample(sample)
	}
	w.snap.CopyInto(&m.committed)
	m.applied++
	m.ck.commit(sample.CompTempK)
	return nil
}

// abort tears the member's solve stage down after err and reports its last
// committed window.
func (m *member) abort(p *emu.Platform, err error) {
	m.st.stop()
	// The solver has exited, so the thermal model is quiescent and safe to
	// snapshot for the flush.
	m.err = m.ck.flushPartial(err, m.res.MaxTempK)
	m.done = true
	res := m.res
	res.Partial = true
	res.FinalSnap = m.committed
	res.Cycles = m.committed.Cycle
	res.VirtualS = float64(m.committed.TimePs) * 1e-12
	m.fillTimes()
	if m.disp != nil {
		res.Link = m.disp.Link().Snapshot()
	}
}

// fillTimes records the member's wall-clock-derived figures.
func (m *member) fillTimes() {
	m.res.Wall = time.Since(m.start)
	m.res.DFSEvents = m.clock.DFSEvents()
	m.res.ThermalLagPs = thermalLagPs(m.clock)
	m.res.VerdictWait = m.st.wait
}

// finish drains the member's in-flight windows at its final boundary and
// reports the run.
func (m *member) finish(p *emu.Platform) {
	// Drain: the remaining min(depth, seq) in-flight windows still owe
	// their feedback; commit them in order at the final boundary.
	for m.applied < m.seq {
		if err := m.applyNext(); err != nil {
			m.abort(p, err)
			return
		}
	}
	m.st.stop()
	res := m.res
	if m.disp != nil {
		if err := m.disp.Stop(p.VPCM.Cycle()); err != nil {
			m.abort(p, err)
			return
		}
		res.Link = m.disp.Link().Snapshot()
	}
	m.done = true
	p.DigestInto(m.cfg.Golden)
	res.Cycles = p.VPCM.Cycle()
	res.VirtualS = p.VPCM.Time()
	res.Done = p.AllHalted()
	m.fillTimes()
	res.FinalSnap = p.Snapshot()
	res.Report = p.Report()
	if res.Done && m.cfg.Workload.Verify != nil {
		if err := m.cfg.Workload.Verify(p.ReadSharedWord); err != nil {
			m.err = fmt.Errorf("core: workload verification: %w", err)
		}
	}
}

// runGroup runs the members over the platform p with step (the fast
// kernel's Platform.Step or the MPARM baseline's Kernel.Step) until every
// member finishes.
func runGroup(p *emu.Platform, step func(uint64), members []member) {
	for i := range members {
		m := &members[i]
		p.VPCM.Use(m.clock)
		m.open(p)
	}
	for {
		target, live := uint64(math.MaxUint64), false
		for i := range members {
			if m := &members[i]; !m.done {
				target, live = min(target, m.target), true
			}
		}
		if !live {
			return
		}
		if cycle := p.VPCM.Cycle(); target > cycle && !p.AllHalted() {
			step(target - cycle)
		}
		// Close every due window first, so the members' solves overlap
		// each other, then wait for verdicts in member order.
		for i := range members {
			if m := &members[i]; m.due(p) && !m.pending {
				p.VPCM.Use(m.clock)
				m.closeWindow(p)
			}
		}
		for i := range members {
			members[i].advance(p)
		}
	}
}

// solver dispatches each window's statistics (in-process call or Ethernet
// frames), converts the returned cell temperatures to component sensor
// readings, and runs the TM policy, recording the DFS verdict for the
// emulate stage to apply at the deterministic boundary. Its link buffers
// are reused across windows.
type solver struct {
	host     *ThermalHost
	policy   tm.Policy
	disp     *etherlink.Dispatcher
	maxBatch int

	pend   []*window
	batch  etherlink.StatsBatch
	treply etherlink.TempsBatch
}

// run is the pipelined solve stage's goroutine. In transport mode, every
// window goes out in a MsgStatsBatch message together with the windows
// that queued up behind it while the link was busy, as many as the depth
// allows and the statistics and the temperature reply both fit one frame.
// After a failure every subsequent window is bounced with the same error
// so the emulate stage observes it at the next boundary.
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

	batch := &sv.batch
	batch.Windows = batch.Windows[:0]
	for _, w := range pend {
		w.powerUW = w.powerUW[:0]
		for _, pw := range w.powers {
			w.powerUW = append(w.powerUW, uint32(pw*1e6+0.5))
		}
		batch.Windows = append(batch.Windows, etherlink.Stats{
			Cycle: w.snap.Cycle, WindowPs: w.windowPs, PowerUW: w.powerUW,
		})
	}
	if err := disp.SendStatsBatch(batch); err != nil {
		return failFrom(pend, pend[0], err)
	}
	if err := disp.RecvTempsBatchInto(&sv.treply, nil); err != nil {
		return failFrom(pend, pend[0], err)
	}
	if len(sv.treply.Windows) != len(pend) {
		return failFrom(pend, pend[0], fmt.Errorf(
			"core: host answered %d temperature windows for a %d-window message",
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
				TempK: t,
			})
		}
		action := sv.policy.Update(w.sensors)
		w.setFreqHz = action.SetFreqHz
		if th, ok := sv.policy.(interface{ Throttled() bool }); ok {
			w.throttled = th.Throttled()
		}
	}
}
