package main

import (
	"bytes"
	"fmt"
	"time"

	"thermemu/internal/checkpoint"
	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/golden"
	"thermemu/internal/scenario"
	"thermemu/internal/sweep"
	"thermemu/internal/tm"
)

// span is one timed call into a layer. Parent indexes the enclosing span
// (-1 for a root).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the same
// replay code runs traced and untraced.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.origin)), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNs = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// replayOut is what one replay of a workload observed.
type replayOut struct {
	wallS   float64
	digests map[string]unitDigest
	// Simulated work, summed over runs; each shared warm-up counted once.
	cycles, instr uint64
	// Core-cycles stepped by the replay itself (warm-ups excluded), those
	// the skip-ahead kernel settled in bulk, and per-core Step calls.
	coreCycles, skipped, coreSteps uint64
	windows                        int
	// hostServiceS is the link host's time from a received frame to its
	// reply: the remote thermal solve (link workloads only).
	hostServiceS float64
	ckptBytes    int
	// Grid: serial warm-up cuts and point replays.
	warmupS, pointsS float64
}

// replay runs the workload's closed loop from outside, calling each layer's
// public functions in core.Run's serial order, and must end on the same
// golden digests as the measured run.
func (w workload) replay(dir string, tr *tracer) (*replayOut, error) {
	out := &replayOut{digests: map[string]unitDigest{}}
	t0 := time.Now()
	root := tr.begin("bench.replay")
	var err error
	if w.grid {
		err = w.replayGrid(dir, tr, out)
	} else {
		err = w.replayScenario(dir, tr, out)
	}
	tr.end(root)
	out.wallS = time.Since(t0).Seconds()
	return out, err
}

func (w workload) replayScenario(dir string, tr *tracer, out *replayOut) error {
	sp := tr.begin("scenario.compile")
	s, err := w.loadScenario(dir)
	tr.end(sp)
	if err != nil {
		return err
	}
	p, err := replayLoop(w.name, s, w.link, nil, false, tr, out)
	if err != nil {
		return err
	}
	// One TMCK checkpoint of the final platform measures the checkpoint
	// layer on this workload's state.
	sp = tr.begin("checkpoint.capture")
	ck := checkpoint.FromPlatform(p)
	tr.end(sp)
	return roundTrip(checkpoint.Encode(ck), tr, out)
}

// roundTrip decodes a checkpoint and checks that it re-encodes to the same
// bytes.
func roundTrip(enc []byte, tr *tracer, out *replayOut) error {
	sp := tr.begin("checkpoint.decode")
	ck, err := checkpoint.Decode(enc)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("checkpoint.encode")
	again := checkpoint.Encode(ck)
	tr.end(sp)
	if !bytes.Equal(again, enc) {
		return fmt.Errorf("checkpoint does not re-encode to its own bytes")
	}
	out.ckptBytes += len(enc)
	return nil
}

func (w workload) replayGrid(dir string, tr *tracer, out *replayOut) error {
	sp := tr.begin("scenario.compile")
	_, points, warmup, err := w.loadGrid(dir)
	if err != nil {
		return err
	}
	tr.end(sp)
	// Each platform group's TM-off warm-up prefix is cut once, as the
	// coordinator does, and every point resumes (TM off) or forks (a
	// policy) from its decoded checkpoint.
	cuts := map[string][]byte{}
	for _, pt := range points {
		key := pt.WarmupKey()
		if _, ok := cuts[key]; ok {
			continue
		}
		t0 := time.Now()
		sp := tr.begin("sweep.warmup")
		enc, err := sweep.CutWarmup(pt.Scenario, warmup)
		tr.end(sp)
		out.warmupS += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if err := roundTrip(enc, tr, out); err != nil {
			return err
		}
		cuts[key] = enc
	}
	counted := map[string]bool{}
	for _, pt := range points {
		key := pt.WarmupKey()
		t0 := time.Now()
		sp := tr.begin("sweep.point")
		if err := replayPoint(pt, cuts[key], !counted[key], tr, out); err != nil {
			return fmt.Errorf("point %s: %w", pt.Name, err)
		}
		tr.end(sp)
		out.pointsS += time.Since(t0).Seconds()
		counted[key] = true
	}
	return nil
}

// replayPoint replays one grid point from its group's warm-up checkpoint;
// countWarmup adds the shared prefix's work, once per group.
func replayPoint(pt sweep.Point, warm []byte, countWarmup bool, tr *tracer, out *replayOut) error {
	sp := tr.begin("checkpoint.decode")
	ck, err := checkpoint.Decode(warm)
	tr.end(sp)
	if err != nil {
		return err
	}
	_, err = replayLoop(pt.Name, pt.Scenario, false, ck, countWarmup, tr, out)
	return err
}

// replayLoop is core.Run's serial loop rebuilt from public calls: build
// the workload, thermal host and platform, optionally resume from a warm-up
// checkpoint, then per window step, snapshot, digest, evaluate power,
// exchange with the thermal host (in process or over the link), run the
// policy; finally digest the architectural state and verify the workload.
// The work before a resumed checkpoint is counted only with countWarmup.
func replayLoop(name string, s *scenario.Scenario, link bool, resume *checkpoint.Checkpoint,
	countWarmup bool, tr *tracer, out *replayOut) (*emu.Platform, error) {

	sp := tr.begin("scenario.compile")
	pcfg, err := s.Platform()
	if err != nil {
		return nil, err
	}
	spec, err := s.Spec()
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	fp, err := floorplanFor(s.Floorplan)
	if err != nil {
		return nil, err
	}
	policy, err := policyFor(s.Policy)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("thermal.build")
	host, err := core.NewThermalHost(fp, s.Cells, thermalOptions(s))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("emu.build")
	p, err := newPlatform(pcfg, spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	eval := core.NewPowerEvaluator(host.FP)
	g := golden.New()
	if resume != nil {
		sp = tr.begin("checkpoint.restore")
		err := restore(resume, p, host, eval, policy, g)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	var (
		disp     *etherlink.Dispatcher
		devTr    etherlink.Transport
		hostSide *timedTransport
		serveErr chan error
	)
	if link {
		remote, err := core.NewThermalHost(fp, s.Cells, thermalOptions(s))
		if err != nil {
			return nil, err
		}
		var hostTr etherlink.Transport
		devTr, hostTr = etherlink.LoopbackPair(16)
		hostSide = &timedTransport{Transport: hostTr}
		serveErr = make(chan error, 1)
		go func() { serveErr <- remote.Serve(hostSide) }()
		disp = etherlink.NewDispatcher(devTr, p.VPCM, 0)
		disp.EnableReliability(etherlink.ReliableConfig{})
		if err := disp.SendCtrl(etherlink.CtrlStart, uint64(host.NumComponents())); err != nil {
			devTr.Close()
			<-serveErr
			return nil, err
		}
	}

	start := p.Snapshot()
	skip0 := p.SkipStats()
	err = replayWindows(p, s, host, eval, policy, g, disp, tr, out)
	if disp != nil {
		if err == nil {
			err = disp.SendCtrl(etherlink.CtrlStop, p.VPCM.Cycle())
		}
		devTr.Close()
		if serr := <-serveErr; serr != nil && err == nil {
			err = fmt.Errorf("thermal host: %w", serr)
		}
		out.hostServiceS += hostSide.busy.Seconds()
	}
	if err != nil {
		return nil, err
	}
	sp = tr.begin("golden.final")
	p.DigestInto(g)
	tr.end(sp)
	if !p.AllHalted() {
		return nil, fmt.Errorf("run did not finish")
	}
	if spec.Verify != nil {
		if err := spec.Verify(p.ReadSharedWord); err != nil {
			return nil, fmt.Errorf("workload verification: %w", err)
		}
	}

	end := p.Snapshot()
	skip := p.SkipStats()
	out.digests[name] = unitDigest{g.Hex(), g.Len()}
	out.cycles += end.Cycle - start.Cycle
	out.coreCycles += (end.Cycle - start.Cycle) * uint64(len(p.Cores))
	out.skipped += skip.SkippedCycles - skip0.SkippedCycles
	out.coreSteps += skip.CoreSteps - skip0.CoreSteps
	for i := range end.Cores {
		out.instr += end.Cores[i].Instructions - start.Cores[i].Instructions
	}
	if countWarmup {
		out.cycles += start.Cycle
		for i := range start.Cores {
			out.instr += start.Cores[i].Instructions
		}
	}
	return p, nil
}

// restore applies a warm-up checkpoint the way core.Run's resume does: a
// TM-off point continues the golden lineage, a policy point forks a fresh
// one.
func restore(ck *checkpoint.Checkpoint, p *emu.Platform, host *core.ThermalHost,
	eval *core.PowerEvaluator, policy tm.Policy, g *golden.Trace) error {
	if err := ck.Apply(p); err != nil {
		return err
	}
	if l := ck.Loop; l != nil {
		if l.Thermal != nil {
			if err := host.Model.RestoreState(*l.Thermal); err != nil {
				return err
			}
		}
		if l.Policy != nil && policy != nil {
			c, ok := policy.(tm.Checkpointable)
			if !ok {
				return fmt.Errorf("policy %T cannot restore checkpoint state", policy)
			}
			c.RestoreCheckpoint(*l.Policy)
		}
		if len(l.CompTemps) > 0 {
			eval.SetComponentTemps(append([]float64(nil), l.CompTemps...))
		}
	}
	if policy == nil {
		return g.Seed(ck.GoldenSum, int(ck.GoldenLen))
	}
	return nil
}

func replayWindows(p *emu.Platform, s *scenario.Scenario, host *core.ThermalHost,
	eval *core.PowerEvaluator, policy tm.Policy, g *golden.Trace,
	disp *etherlink.Dispatcher, tr *tracer, out *replayOut) error {

	windowPs := uint64(s.WindowMs * 1e9)
	tscale := s.Timescale
	if tscale <= 0 {
		tscale = 1
	}
	ncomp := host.NumComponents()
	powers := make([]float64, ncomp)
	powerUW := make([]uint32, ncomp)
	sensors := make([]tm.Sensor, ncomp)
	var (
		cellTemps, compTemps []float64
		temps                etherlink.Temps
	)
	prev := p.Snapshot()
	loop := tr.begin("core.loop")
	for !p.AllHalted() {
		win := tr.begin("core.window")
		n := windowPs / (uint64(1e12) / p.VPCM.Frequency())
		if n == 0 {
			n = 1
		}
		sp := tr.begin("emu.step")
		p.Step(n)
		tr.end(sp)
		if err := p.Fault(); err != nil {
			return err
		}
		sp = tr.begin("emu.snapshot")
		snap := p.Snapshot()
		tr.end(sp)
		sp = tr.begin("golden.digest")
		emu.DigestSnapshot(g, snap)
		tr.end(sp)
		sp = tr.begin("power.eval")
		_, err := eval.Powers(prev, snap, powers)
		tr.end(sp)
		if err != nil {
			return err
		}
		dt := uint64(float64(snap.TimePs-prev.TimePs) * tscale)
		prev = snap

		sp = tr.begin("host.exchange")
		if disp != nil {
			for i, w := range powers {
				powerUW[i] = uint32(w*1e6 + 0.5)
			}
			if err := disp.SendStats(&etherlink.Stats{Cycle: snap.Cycle, WindowPs: dt, PowerUW: powerUW}); err != nil {
				return err
			}
			if err := disp.RecvTempsInto(&temps, nil); err != nil {
				return err
			}
			cellTemps = cellTemps[:0]
			for i := range temps.MilliK {
				cellTemps = append(cellTemps, temps.Kelvin(i))
			}
		} else {
			th := tr.begin("thermal.solve")
			cellTemps, err = host.StepWindowInto(powers, float64(dt)*1e-12, cellTemps)
			tr.end(th)
			if err != nil {
				return err
			}
		}
		compTemps = host.ComponentTempsInto(cellTemps, compTemps)
		tr.end(sp)
		eval.SetComponentTemps(compTemps)

		if policy != nil {
			for i, t := range compTemps {
				sensors[i] = tm.Sensor{Name: host.FP.Components[i].Name, TempK: tm.SensorModel{}.Read(t)}
			}
			if a := policy.Update(sensors); a.SetFreqHz != 0 {
				p.VPCM.SetFrequency(a.SetFreqHz)
			}
		}
		tr.end(win)
		out.windows++
	}
	tr.end(loop)
	return nil
}

// timedTransport wraps the host side of the link and accumulates the
// host's service time: from each received frame to the reply it sends.
type timedTransport struct {
	etherlink.Transport
	recvAt time.Time
	busy   time.Duration
}

func (t *timedTransport) Recv() ([]byte, error) {
	f, err := t.Transport.Recv()
	if err == nil {
		t.recvAt = time.Now()
	}
	return f, err
}

func (t *timedTransport) Send(f []byte) error {
	if !t.recvAt.IsZero() {
		t.busy += time.Since(t.recvAt)
		t.recvAt = time.Time{}
	}
	return t.Transport.Send(f)
}
