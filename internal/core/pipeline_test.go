package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/golden"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
)

// runWithJournal runs the closed loop with a journaling golden trace
// attached and returns both.
func runWithJournal(t *testing.T, cfg Config) (*Result, *golden.Trace) {
	t.Helper()
	tr := golden.NewJournal()
	cfg.Golden = tr
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run incomplete")
	}
	return res, tr
}

// TestPipelinedDigestMatchesSerialTMOff is the differential matrix of the
// determinism contract: with thermal feedback off (no DFS policy, no
// leakage) the pipelined loop must be digest-identical to depth 0
// at every depth, because window boundaries depend only on emulated state.
func TestPipelinedDigestMatchesSerialTMOff(t *testing.T) {
	serial, serialTr := runWithJournal(t, testConfig(t, 4, nil))

	for _, depth := range []int{1, 2} {
		cfg := testConfig(t, 4, nil)
		cfg.PipelineDepth = depth
		pipe, pipeTr := runWithJournal(t, cfg)

		if d := golden.Compare(serialTr, pipeTr); d != nil {
			t.Fatalf("depth %d diverged from serial: %v", depth, d)
		}
		if serial.Cycles != pipe.Cycles || serial.VirtualS != pipe.VirtualS {
			t.Fatalf("depth %d timeline differs: %d cy/%.6fs vs %d cy/%.6fs",
				depth, serial.Cycles, serial.VirtualS, pipe.Cycles, pipe.VirtualS)
		}
		// With TM off the solver consumes the exact same power windows in
		// the exact same order, so samples must be bit-identical too.
		if len(serial.Samples) != len(pipe.Samples) {
			t.Fatalf("depth %d sample counts: serial %d vs pipelined %d",
				depth, len(serial.Samples), len(pipe.Samples))
		}
		for i := range serial.Samples {
			s, p := serial.Samples[i], pipe.Samples[i]
			if s.Cycle != p.Cycle || s.TimePs != p.TimePs || s.FreqHz != p.FreqHz {
				t.Fatalf("depth %d sample %d timeline: %+v vs %+v", depth, i, s, p)
			}
			if s.MaxTempK != p.MaxTempK {
				t.Fatalf("depth %d sample %d temp: %v vs %v", depth, i, s.MaxTempK, p.MaxTempK)
			}
			for j := range s.CompPowerW {
				if s.CompPowerW[j] != p.CompPowerW[j] {
					t.Fatalf("depth %d sample %d power %d: %v vs %v",
						depth, i, j, s.CompPowerW[j], p.CompPowerW[j])
				}
			}
		}
		if serial.MaxTempK != pipe.MaxTempK {
			t.Fatalf("depth %d MaxTempK: %v vs %v", depth, serial.MaxTempK, pipe.MaxTempK)
		}
	}
}

// TestPipelinedTransportMatchesSerial runs the pipelined loop over the
// Ethernet loopback (exercising the batched stats dispatch) and checks it
// against an in-process serial run: identical golden digest, and the same
// temperature trajectory modulo millikelvin quantisation.
func TestPipelinedTransportMatchesSerial(t *testing.T) {
	serial, serialTr := runWithJournal(t, testConfig(t, 3, nil))

	cfg := testConfig(t, 3, nil)
	cfg.PipelineDepth = 2
	devTr, hostTr := etherlink.LoopbackPair(8)
	cfg.Transport = devTr
	cfg.DrainPhysCycles = 100

	hostPlan, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hostPlan.Serve(hostTr) }()

	pipe, pipeTr := runWithJournal(t, cfg)
	if err := <-serveErr; err != nil {
		t.Fatalf("host serve: %v", err)
	}
	if d := golden.Compare(serialTr, pipeTr); d != nil {
		t.Fatalf("transport pipelined run diverged from serial: %v", d)
	}
	if len(serial.Samples) != len(pipe.Samples) {
		t.Fatalf("sample counts: serial %d vs pipelined %d",
			len(serial.Samples), len(pipe.Samples))
	}
	for i := range serial.Samples {
		d, r := serial.Samples[i].MaxTempK, pipe.Samples[i].MaxTempK
		if math.Abs(d-r) > 0.002 {
			t.Fatalf("sample %d: in-process %.4f K vs link %.4f K", i, d, r)
		}
	}
}

// TestPipelinedLinkSizesBatchesByReply covers the temperature reply's frame
// limit. At about 200 cells two windows' temperatures overflow one frame,
// so the depth-2 loop must cap its batches at one window and still match
// the serial in-process digest. At about 400 cells not even one window's
// reply fits, and Run must refuse up front with a typed error instead of
// stalling the link.
func TestPipelinedLinkSizesBatchesByReply(t *testing.T) {
	withCells := func(cells int) Config {
		cfg := testConfig(t, 2, nil)
		host, err := NewThermalHost(floorplan.FourARM11(), cells, thermal.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Host = host
		// Short windows emulate faster than the host solves them, so
		// windows queue up and the loop batches whenever it may.
		cfg.WindowPs = 2_000_000
		return cfg
	}

	serialCfg := withCells(200)
	if n := len(serialCfg.Host.SiCells); etherlink.MaxTempsBatch(n) != 1 ||
		etherlink.MaxStatsBatch(serialCfg.Host.NumComponents()) < 2 {
		t.Fatalf("%d cells: want a stats batch of 2+ windows whose reply fits only one", n)
	}
	_, serialTr := runWithJournal(t, serialCfg)
	cfg := withCells(200)
	cfg.PipelineDepth = 2
	devTr, hostTr := etherlink.LoopbackPair(8)
	cfg.Transport = devTr
	cfg.DrainPhysCycles = 100
	serveErr := make(chan error, 1)
	go func() { serveErr <- withCells(200).Host.Serve(hostTr) }()
	_, pipeTr := runWithJournal(t, cfg)
	if err := <-serveErr; err != nil {
		t.Fatalf("host serve: %v", err)
	}
	if d := golden.Compare(serialTr, pipeTr); d != nil {
		t.Fatalf("200-cell link run diverged from serial: %v", d)
	}

	cfg = withCells(400)
	cfg.PipelineDepth = 2
	cfg.Transport, _ = etherlink.LoopbackPair(8)
	start := time.Now()
	_, err := Run(cfg, nil)
	var tooLarge *etherlink.TempsTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Cells != len(cfg.Host.SiCells) {
		t.Fatalf("400 cells: got error %v, want a TempsTooLargeError", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("400 cells: refusal took %v", el)
	}
}

// TestPipelinedTMReproducible checks the bit-reproducibility half of the
// contract: with a DFS policy active (so feedback genuinely alters the
// emulated timeline) two depth-2 runs must be identical record for record.
// The CI race job runs this under -race, which also vets the channel
// hand-off discipline between the emulate and solve stages.
func TestPipelinedTMReproducible(t *testing.T) {
	run := func() (*Result, *golden.Trace) {
		cfg := testConfig(t, 60,
			&tm.ThresholdDFS{HighK: 320, LowK: 315, HighFreqHz: 500e6, LowFreqHz: 100e6})
		cfg.PipelineDepth = 2
		return runWithJournal(t, cfg)
	}
	a, aTr := run()
	b, bTr := run()

	if d := golden.Compare(aTr, bTr); d != nil {
		t.Fatalf("repeat runs diverged: %v", d)
	}
	if a.DFSEvents != b.DFSEvents {
		t.Fatalf("DFS events differ across repeats: %d vs %d", a.DFSEvents, b.DFSEvents)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		x, y := a.Samples[i], b.Samples[i]
		if x.Cycle != y.Cycle || x.TimePs != y.TimePs || x.FreqHz != y.FreqHz ||
			x.MaxTempK != y.MaxTempK || x.Throttled != y.Throttled {
			t.Fatalf("sample %d differs across repeats: %+v vs %+v", i, x, y)
		}
	}
	if a.DFSEvents > 0 {
		t.Logf("policy acted %d times with a 2-window sensor latency", a.DFSEvents)
	}
}

// slowPolicy wraps a policy with a solve that takes at least delay. Around
// tm.NullPolicy it never acts, so the emulated timeline stays identical to
// a policy-free run while the solver is reliably slower than the emulator.
type slowPolicy struct {
	tm.Policy
	delay time.Duration
}

func (s *slowPolicy) Update(sensors []tm.Sensor) tm.Action {
	time.Sleep(s.delay)
	return s.Policy.Update(sensors)
}

// TestPipelinedBackpressureFreezesVirtualTime forces the solve stage to lag
// and checks the producer reacts the way Section 4.2 prescribes for a
// congested link: virtual time freezes — accounted to
// vpcm.ThermalLagSource — and the emulated windows stay exact, so the
// golden digest still matches a serial run with no policy at all. The
// solve returns only once the emulate stage has stopped stepping
// (stallPolicy), and at depth 1 the emulate stage stops only in the
// lag-accounted submit or next wait, whatever the host's speed. Each of
// the run's windows is one more chance for that wait.
func TestPipelinedBackpressureFreezesVirtualTime(t *testing.T) {
	_, serialTr := runWithJournal(t, spanConfig(t, 3, nil))

	cfg := spanConfig(t, 3, stall(tm.NullPolicy{}))
	cfg.PipelineDepth = 1
	pipe := runObserved(cfg)
	if pipe.err != nil || !pipe.res.Done {
		t.Fatalf("err %v, done %v", pipe.err, pipe.res != nil && pipe.res.Done)
	}
	if pipe.res.ThermalLagPs == 0 {
		t.Fatal("slow solver accrued no thermal-lag frozen time")
	}
	if d := golden.Compare(serialTr, pipe.tr); d != nil {
		t.Fatalf("backpressure corrupted the emulated windows: %v", d)
	}
	t.Logf("%d windows, thermal lag: %.3f ms frozen", len(pipe.res.Samples), float64(pipe.res.ThermalLagPs)*1e-9)
}

// TestPipelinedPartialResultOnLinkCut severs the link mid-run (no redial;
// the reliability layer cannot heal a cut) and checks the error path
// reports the last *committed* window instead of metrics from a
// half-stepped platform.
func TestPipelinedPartialResultOnLinkCut(t *testing.T) {
	for _, depth := range []int{0, 2} {
		cfg := testConfig(t, 40, nil)
		cfg.WindowPs = 2_000_000 // 2 µs: many windows, so the cut lands mid-run
		cfg.PipelineDepth = depth
		// A short retry budget on both sides: the cut surfaces as an error
		// at once, and the host gives up on the dead link quickly.
		link := etherlink.ReliableConfig{RetryTimeout: 10 * time.Millisecond, MaxRetries: 5}
		cfg.Link = link
		devTr, hostTr := etherlink.LoopbackPair(8)
		cfg.Transport = etherlink.NewFaultTransport(devTr, 99,
			etherlink.FaultConfig{CutAfter: 12}, etherlink.FaultConfig{})
		cfg.DrainPhysCycles = 100

		hostPlan, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- hostPlan.ServeWith(hostTr, ServeOptions{Link: link}) }()

		res, err := Run(cfg, nil)
		if err == nil {
			t.Fatalf("depth %d: severed link produced no error", depth)
		}
		if res == nil {
			t.Fatalf("depth %d: no partial result alongside the error", depth)
		}
		if !res.Partial {
			t.Errorf("depth %d: result not marked partial", depth)
		}
		if res.Done {
			t.Errorf("depth %d: partial result claims completion", depth)
		}
		if res.Report != "" {
			t.Errorf("depth %d: partial result carries a platform report", depth)
		}
		// The summary must describe the last committed window exactly.
		if res.FinalSnap.Cycle != res.Cycles {
			t.Errorf("depth %d: FinalSnap.Cycle %d != Cycles %d",
				depth, res.FinalSnap.Cycle, res.Cycles)
		}
		if got, want := res.VirtualS, float64(res.FinalSnap.TimePs)*1e-12; got != want {
			t.Errorf("depth %d: VirtualS %v != committed %v", depth, got, want)
		}
		if n := len(res.Samples); n > 0 && res.Samples[n-1].Cycle != res.Cycles {
			t.Errorf("depth %d: last sample cycle %d != committed cycle %d",
				depth, res.Samples[n-1].Cycle, res.Cycles)
		}
		if res.Cycles == 0 {
			t.Errorf("depth %d: cut after 12 frames committed nothing", depth)
		}

		// Unblock and collect the host side (it sees the dead link as an
		// error or EOF — either is fine, the device already reported).
		devTr.Close()
		<-serveErr
	}
}

// TestPipelineConfigValidation pins the rejected configuration.
func TestPipelineConfigValidation(t *testing.T) {
	cfg := testConfig(t, 1, nil)
	cfg.PipelineDepth = -1
	if _, err := Run(cfg, nil); err == nil {
		t.Error("negative pipeline depth accepted")
	}
}

// TestPipelinedDiscardSamples checks the zero-retention mode used by the
// benchmarks: samples stream through the callback (with reused buffers) and
// nothing accumulates on the result.
func TestPipelinedDiscardSamples(t *testing.T) {
	cfg := testConfig(t, 2, nil)
	cfg.PipelineDepth = 1
	cfg.DiscardSamples = true
	n := 0
	var lastCycle uint64
	res, err := Run(cfg, func(s Sample) {
		n++
		if s.Cycle <= lastCycle {
			t.Errorf("samples not monotone: %d after %d", s.Cycle, lastCycle)
		}
		lastCycle = s.Cycle
		if len(s.CellTempK) != 28 {
			t.Errorf("callback sample has %d cell temps", len(s.CellTempK))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 0 {
		t.Errorf("DiscardSamples retained %d samples", len(res.Samples))
	}
	if n == 0 {
		t.Error("callback never fired")
	}
	if res.MaxTempK <= 300 {
		t.Error("max temperature not tracked in discard mode")
	}
}

// TestHostBatchMatchesSingles drives the host protocol directly: the same
// two statistics windows sent once as two one-window messages and once as
// one two-window message must produce bit-identical temperature replies —
// the number of windows per message changes the framing, never the thermal
// trajectory.
func TestHostBatchMatchesSingles(t *testing.T) {
	ncomp := len(floorplan.FourARM11().Components)
	mkPowers := func(base uint32) []uint32 {
		pw := make([]uint32, ncomp)
		for i := range pw {
			pw[i] = base + uint32(i)*37_000 // distinct, sub-watt per component
		}
		return pw
	}
	stats := []etherlink.Stats{
		{Cycle: 50_000, WindowPs: 200_000_000_000, PowerUW: mkPowers(400_000)},
		{Cycle: 100_000, WindowPs: 200_000_000_000, PowerUW: mkPowers(250_000)},
	}

	session := func(perMessage int) []etherlink.Temps {
		t.Helper()
		devTr, hostTr := etherlink.LoopbackPair(8)
		host, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := host.NumComponents(), len(stats[0].PowerUW); got != want {
			t.Fatalf("test vector has %d powers, floorplan has %d components", want, got)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- host.Serve(hostTr) }()

		ep := etherlink.NewEndpoint(devTr, etherlink.DeviceMAC, etherlink.HostMAC, etherlink.ReliableConfig{})
		start := &etherlink.Ctrl{Op: etherlink.CtrlStart, Arg: uint64(host.NumComponents())}
		if err := ep.Send(etherlink.MsgCtrl, start.MarshalPayload()); err != nil {
			t.Fatal(err)
		}
		var out []etherlink.Temps
		for i := 0; i < len(stats); i += perMessage {
			sb := &etherlink.StatsBatch{Windows: stats[i : i+perMessage]}
			if err := ep.Send(etherlink.MsgStatsBatch, sb.MarshalPayload()); err != nil {
				t.Fatal(err)
			}
			f, err := ep.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if f.Type != etherlink.MsgTempBatch {
				t.Fatalf("statistics answered with %v", f.Type)
			}
			tb, err := etherlink.UnmarshalTempsBatch(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Windows) != perMessage {
				t.Fatalf("a %d-window message answered with %d windows", perMessage, len(tb.Windows))
			}
			out = append(out, tb.Windows...)
		}
		stop := &etherlink.Ctrl{Op: etherlink.CtrlStop}
		if err := ep.Send(etherlink.MsgCtrl, stop.MarshalPayload()); err != nil {
			t.Fatal(err)
		}
		// Hanging up ends the host's wait for an acknowledgement of its
		// echo.
		devTr.Close()
		if err := <-serveErr; err != nil {
			t.Fatalf("host serve: %v", err)
		}
		return out
	}

	singles := session(1)
	batch := session(2)
	if len(batch) != len(singles) {
		t.Fatalf("batch answered %d windows, singles %d", len(batch), len(singles))
	}
	for i := range singles {
		if singles[i].TimePs != batch[i].TimePs {
			t.Errorf("window %d time: single %d vs batch %d",
				i, singles[i].TimePs, batch[i].TimePs)
		}
		for j := range singles[i].MilliK {
			if singles[i].MilliK[j] != batch[i].MilliK[j] {
				t.Fatalf("window %d cell %d: single %d mK vs batch %d mK",
					i, j, singles[i].MilliK[j], batch[i].MilliK[j])
			}
		}
	}
}

// wireRecorder counts the message types of the frames sent through it.
type wireRecorder struct {
	etherlink.Transport
	mu    *sync.Mutex
	types map[etherlink.MsgType]int
}

func (w wireRecorder) note(b []byte) {
	f, err := etherlink.Unmarshal(b)
	if err != nil {
		return
	}
	w.mu.Lock()
	w.types[f.Type]++
	w.mu.Unlock()
}

func (w wireRecorder) Send(b []byte) error {
	w.note(b)
	return w.Transport.Send(b)
}

func (w wireRecorder) TrySend(b []byte) (bool, error) {
	ok, err := w.Transport.TrySend(b)
	if ok {
		w.note(b)
	}
	return ok, err
}

// TestDepth0LinkWireMessages records every frame both ends of a clean
// depth-0 loopback run send: only the window pair, MsgCtrl and MsgAck go
// on the wire, one window per statistics message and temperature message,
// and the link counters agree with what the wire carried.
func TestDepth0LinkWireMessages(t *testing.T) {
	var mu sync.Mutex
	types := map[etherlink.MsgType]int{}
	devTr, hostTr := etherlink.LoopbackPair(4)
	cfg := testConfig(t, 3, nil)
	cfg.WindowPs = 2_000_000 // several windows
	cfg.Transport = wireRecorder{devTr, &mu, types}
	// A long retry timeout keeps idle re-solicits (MsgNack) off a clean run.
	cfg.Link = etherlink.ReliableConfig{RetryTimeout: 10 * time.Second}
	hostPlan, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- hostPlan.ServeWith(wireRecorder{hostTr, &mu, types}, ServeOptions{Link: cfg.Link})
	}()
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("host serve: %v", err)
	}
	n := len(res.Samples)
	if !res.Done || n == 0 {
		t.Fatal("run incomplete")
	}
	mu.Lock()
	defer mu.Unlock()
	for typ, c := range types {
		switch typ {
		case etherlink.MsgStatsBatch, etherlink.MsgTempBatch, etherlink.MsgCtrl, etherlink.MsgAck:
		default:
			t.Errorf("%d %v frames on the wire", c, typ)
		}
	}
	if types[etherlink.MsgStatsBatch] != n || types[etherlink.MsgTempBatch] != n {
		t.Errorf("%d windows went out in %d statistics and %d temperature messages, want one each per window",
			n, types[etherlink.MsgStatsBatch], types[etherlink.MsgTempBatch])
	}
	// Start, stop and the stop's echo; the device acknowledges the echo.
	if types[etherlink.MsgCtrl] != 3 || types[etherlink.MsgAck] != 1 {
		t.Errorf("%d ctrl and %d ack frames, want 3 and 1", types[etherlink.MsgCtrl], types[etherlink.MsgAck])
	}
	l := res.Link
	if l.WindowsSent != uint64(n) || l.WindowsAnswered != uint64(n) {
		t.Errorf("link counted %d windows sent and %d answered, want %d", l.WindowsSent, l.WindowsAnswered, n)
	}
	// The device's sequenced frames are start, its statistics and stop;
	// it receives the temperatures and the echo. The final ack rides
	// outside the sequence space and is not counted.
	if l.FramesSent != uint64(n+2) || l.FramesRecv != uint64(n+1) {
		t.Errorf("link counted %d frames out and %d in, want %d and %d", l.FramesSent, l.FramesRecv, n+2, n+1)
	}
}

// TestSnapshotCopyInto pins the reusable-buffer snapshot copy used by the
// pipeline's committed-window bookkeeping.
func TestSnapshotCopyInto(t *testing.T) {
	cfg := testConfig(t, 1, nil)
	p, err := emu.New(cfg.Platform)
	if err != nil {
		t.Fatal(err)
	}
	var a, b emu.Snapshot
	p.SnapshotInto(&a)
	a.CopyInto(&b)
	if len(b.Cores) != len(a.Cores) || b.Cycle != a.Cycle || b.TimePs != a.TimePs {
		t.Fatalf("copy differs: %+v vs %+v", b, a)
	}
	// The copy must be detached: refill a and check b is unchanged.
	aCores := b.Cores
	p.SnapshotInto(&a)
	a.Cores[0].ActiveCycles += 999
	if &aCores[0] == &a.Cores[0] {
		t.Fatal("copy aliases the source's core stats")
	}
}
