package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"thermemu/internal/cpu"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/mem"
	"thermemu/internal/power"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

// testConfig builds a small, fast closed-loop configuration: a 4-core
// 100 MHz platform running Matrix-TM, the ARM11 floorplan on 28 cells, a
// 0.1 ms sampling window and a large thermal time scale so the seconds-long
// thermal transient compresses into a handful of windows.
func testConfig(t *testing.T, iters int, policy tm.Policy) Config {
	t.Helper()
	pcfg := emu.DefaultConfig(4)
	pcfg.FreqHz = 500e6 // so the 500/100 MHz DFS policy has headroom
	pcfg.IC = emu.ICNoC
	pcfg.NoC = emu.Fig6NoC(4)
	spec, err := workloads.MatrixTM(4, 8, iters, pcfg.PrivKB)
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Platform:         pcfg,
		Workload:         spec,
		Host:             host,
		WindowPs:         100_000_000, // 0.1 ms virtual
		Policy:           policy,
		ThermalTimeScale: 2000, // 0.1 ms window ≈ 0.2 s thermal
	}
}

func TestClosedLoopInProcess(t *testing.T) {
	cfg := testConfig(t, 4, nil)
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("workload did not finish")
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	// Temperatures rise above ambient while the cores are busy.
	if res.MaxTempK <= 300 {
		t.Errorf("max temp %.2f K never rose above ambient", res.MaxTempK)
	}
	// Samples carry a full power/temperature vector.
	s := res.Samples[0]
	if len(s.CompPowerW) != cfg.Host.NumComponents() {
		t.Errorf("sample power entries = %d", len(s.CompPowerW))
	}
	if len(s.CellTempK) != 28 {
		t.Errorf("sample cell temps = %d", len(s.CellTempK))
	}
	if len(s.CompTempK) != cfg.Host.NumComponents() {
		t.Errorf("sample component temps = %d", len(s.CompTempK))
	}
	// Virtual time advanced consistently with the windows.
	if res.VirtualS <= 0 {
		t.Error("no virtual time elapsed")
	}
}

func TestSampleCallbackStreams(t *testing.T) {
	cfg := testConfig(t, 2, nil)
	n := 0
	var lastCycle uint64
	res, err := Run(cfg, func(s Sample) {
		n++
		if s.Cycle <= lastCycle {
			t.Errorf("samples not monotone: %d after %d", s.Cycle, lastCycle)
		}
		lastCycle = s.Cycle
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Samples) {
		t.Errorf("callback saw %d samples, result has %d", n, len(res.Samples))
	}
}

func TestThermalManagementThrottlesAndCaps(t *testing.T) {
	// The test uses a scaled-down threshold band (320/315 K) so a short
	// run exercises the full throttle/release mechanism; the paper's
	// 350/340 K band is covered by the Figure 6 harness.
	noTM, err := Run(testConfig(t, 60, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if noTM.MaxTempK <= 320 {
		t.Skipf("test workload only reached %.1f K; cannot exercise the policy", noTM.MaxTempK)
	}
	pol := &tm.ThresholdDFS{HighK: 320, LowK: 315, HighFreqHz: 500e6, LowFreqHz: 100e6}
	withTM, err := Run(testConfig(t, 60, pol), nil)
	if err != nil {
		t.Fatal(err)
	}
	if withTM.DFSEvents == 0 {
		t.Fatal("policy never acted")
	}
	if pol.Switches == 0 {
		t.Error("policy reports no switches")
	}
	if withTM.MaxTempK >= noTM.MaxTempK {
		t.Errorf("TM did not help: %.2f K with vs %.2f K without", withTM.MaxTempK, noTM.MaxTempK)
	}
	// Some sample must be marked throttled.
	throttledSeen := false
	lowFreqSeen := false
	for _, s := range withTM.Samples {
		if s.Throttled {
			throttledSeen = true
		}
		if s.FreqHz == 100e6 {
			lowFreqSeen = true
		}
	}
	if !throttledSeen || !lowFreqSeen {
		t.Errorf("throttling not visible in samples (throttled=%v lowfreq=%v)",
			throttledSeen, lowFreqSeen)
	}
}

func TestClosedLoopOverEthernet(t *testing.T) {
	cfg := testConfig(t, 3, nil)
	devTr, hostTr := etherlink.LoopbackPair(4)
	cfg.Transport = devTr
	cfg.DrainPhysCycles = 100

	// The host side runs Serve on its own goroutine, like cmd/thermserver.
	hostPlan, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hostPlan.Serve(hostTr) }()

	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("host serve: %v", err)
	}
	if !res.Done || len(res.Samples) == 0 {
		t.Fatal("transport run incomplete")
	}
	if res.MaxTempK <= 300 {
		t.Error("no heating observed over the link")
	}

	// Cross-check: an identical in-process run produces the same
	// temperature trajectory (the link must be semantically transparent,
	// modulo the millikelvin quantisation of the Temps frames).
	direct, err := Run(testConfig(t, 3, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Samples) != len(res.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(direct.Samples), len(res.Samples))
	}
	for i := range direct.Samples {
		d, r := direct.Samples[i].MaxTempK, res.Samples[i].MaxTempK
		if math.Abs(d-r) > 0.002 {
			t.Fatalf("sample %d: direct %.4f K vs link %.4f K", i, d, r)
		}
	}
}

func TestPowerEvaluatorActivityMapping(t *testing.T) {
	fp := floorplan.FourARM11()
	ev := NewPowerEvaluator(fp)
	prev := emu.Snapshot{Cycle: 0, FreqHz: 100e6}
	cur := emu.Snapshot{Cycle: 1000, FreqHz: 100e6}
	for i := 0; i < 4; i++ {
		prev.Cores = append(prev.Cores, cpuStats(0, 0))
		cur.Cores = append(cur.Cores, cpuStats(500, 1000)) // 50% active
		prev.ICaches = append(prev.ICaches, cacheStats(0))
		cur.ICaches = append(cur.ICaches, cacheStats(800))
		prev.DCaches = append(prev.DCaches, cacheStats(0))
		cur.DCaches = append(cur.DCaches, cacheStats(200))
		prev.Ctrls = append(prev.Ctrls, ctrlStats(0, 0))
		cur.Ctrls = append(cur.Ctrls, ctrlStats(300, 100))
	}
	pw, err := ev.Powers(prev, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Core power = 1.5 W * 0.5 activity * (100 MHz / 500 MHz reference).
	ci := fp.Find("core0")
	if math.Abs(pw[ci]-0.15) > 1e-9 {
		t.Errorf("core power = %v, want 0.15", pw[ci])
	}
	// ICache: 800/1000 accesses * 11 mW.
	ii := fp.Find("icache0")
	if math.Abs(pw[ii]-0.8*11e-3) > 1e-9 {
		t.Errorf("icache power = %v", pw[ii])
	}
	// Shared memory sums over cores: 4*100/1000 = 0.4 activity * 15 mW.
	si := fp.Find("sharedmem")
	if math.Abs(pw[si]-0.4*15e-3) > 1e-9 {
		t.Errorf("shared power = %v", pw[si])
	}
	// Frequency scaling: the same activity at the ARM11's 500 MHz
	// reference point gives the full 1.5 W * 0.5 activity.
	cur.FreqHz = 500e6
	pw5, _ := ev.Powers(prev, cur, pw)
	if math.Abs(pw5[ci]-0.75) > 1e-9 {
		t.Errorf("scaled core power = %v", pw5[ci])
	}
}

func TestPowerEvaluatorZeroWindow(t *testing.T) {
	fp := floorplan.FourARM7()
	ev := NewPowerEvaluator(fp)
	s := emu.Snapshot{Cycle: 5, FreqHz: 100e6}
	pw, err := ev.Powers(s, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range pw {
		if w != 0 {
			t.Errorf("component %d has power %v in an empty window", i, w)
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("empty config accepted")
	}
	cfg := testConfig(t, 1, nil)
	cfg.Platform.Cores = 2 // mismatch with the 4-program workload
	if _, err := Run(cfg, nil); err == nil {
		t.Error("program/core mismatch accepted")
	}
}

func TestFig6ConfigConstruction(t *testing.T) {
	cfg, err := Fig6Config(10, true)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Platform.FreqHz != 500e6 {
		t.Errorf("freq = %d", cfg.Platform.FreqHz)
	}
	if len(cfg.Host.SiCells) != 28 {
		t.Errorf("cells = %d", len(cfg.Host.SiCells))
	}
	if cfg.Policy == nil {
		t.Error("TM policy missing")
	}
	noTM, err := Fig6Config(10, false)
	if err != nil {
		t.Fatal(err)
	}
	if noTM.Policy != nil {
		t.Error("policy present without TM")
	}
}

func TestHostServeComponentMismatch(t *testing.T) {
	devTr, hostTr := etherlink.LoopbackPair(4)
	host, err := NewThermalHost(floorplan.FourARM7(), 16, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- host.Serve(hostTr) }()
	ep := etherlink.NewEndpoint(devTr, etherlink.DeviceMAC, etherlink.HostMAC, etherlink.ReliableConfig{})
	if err := ep.Send(etherlink.MsgCtrl, (&etherlink.Ctrl{Op: etherlink.CtrlStart, Arg: 3}).MarshalPayload()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Error("component mismatch not rejected")
	}
}

// TestHostRefusesRetiredMessages: a frame with a retired message code — a
// single-window message (1 or 2) or the event-log stream (5) — as an older
// build sends, ends the session with an error naming the code instead of
// leaving that peer to stall.
func TestHostRefusesRetiredMessages(t *testing.T) {
	for _, code := range []etherlink.MsgType{1, 2, 5} {
		devTr, hostTr := etherlink.LoopbackPair(4)
		host, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- host.Serve(hostTr) }()
		ep := etherlink.NewEndpoint(devTr, etherlink.DeviceMAC, etherlink.HostMAC, etherlink.ReliableConfig{})
		if err := ep.Send(code, make([]byte, 18+4*host.NumComponents())); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), code.String()) {
				t.Errorf("code %d: Serve returned %v, want a refusal naming %v", code, err, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("code %d: Serve still running 5 s after a retired message", code)
		}
		devTr.Close()
	}
}

// TestHostRefusesUnknownCtrlOps: a control op the host does not serve —
// a retired code (3, the old clock freeze) or one never assigned (9) —
// ends the session with an error naming the op, and the statistics the
// device sends after it are never answered.
func TestHostRefusesUnknownCtrlOps(t *testing.T) {
	for _, op := range []etherlink.CtrlOp{3, 9} {
		devTr, hostTr := etherlink.LoopbackPair(4)
		host, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- host.Serve(hostTr) }()
		ep := etherlink.NewEndpoint(devTr, etherlink.DeviceMAC, etherlink.HostMAC, etherlink.ReliableConfig{})
		sb := etherlink.StatsBatch{Windows: []etherlink.Stats{
			{Cycle: 1, WindowPs: 1e9, PowerUW: make([]uint32, host.NumComponents())}}}
		for _, f := range []struct {
			typ     etherlink.MsgType
			payload []byte
		}{
			{etherlink.MsgCtrl, (&etherlink.Ctrl{Op: etherlink.CtrlStart, Arg: uint64(host.NumComponents())}).MarshalPayload()},
			{etherlink.MsgCtrl, (&etherlink.Ctrl{Op: op}).MarshalPayload()},
			{etherlink.MsgStatsBatch, sb.MarshalPayload()},
		} {
			if err := ep.Send(f.typ, f.payload); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), op.String()+" control op") {
				t.Errorf("op %d: Serve returned %v, want a refusal naming %v", op, err, op)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d: Serve still running 5 s after the op", op)
		}
		// Whatever the host sent before it returned is queued; none of it
		// may be a temperature message.
		devTr.SetRecvDeadline(time.Now().Add(20 * time.Millisecond))
		for {
			b, err := devTr.Recv()
			if err != nil {
				break
			}
			if f, err := etherlink.Unmarshal(b); err == nil && f.Type == etherlink.MsgTempBatch {
				t.Errorf("op %d: host answered with temperatures", op)
			}
		}
		devTr.Close()
	}
}

// TestSetupRefusesOversizedInputs: NewThermalHost refuses a cell target
// outside [1, MaxCells], and RunGroup a pipeline depth above
// MaxPipelineDepth for the whole group, before anything sized by them is
// allocated. The bounds themselves are accepted.
func TestSetupRefusesOversizedInputs(t *testing.T) {
	for _, cells := range []int{-1, 0, MaxCells + 1, 400_000} {
		_, err := NewThermalHost(floorplan.FourARM11(), cells, thermal.DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), "thermal cells must be between 1 and 65536") {
			t.Errorf("NewThermalHost(%d cells): error %v, want the cell bound", cells, err)
		}
	}
	if _, err := NewThermalHost(floorplan.FourARM11(), 1, thermal.DefaultOptions()); err != nil {
		t.Errorf("NewThermalHost(1 cell): %v", err)
	}

	ok, deep := testConfig(t, 1, nil), testConfig(t, 1, nil)
	deep.Workload = ok.Workload
	deep.PipelineDepth = MaxPipelineDepth + 1
	_, errs := RunGroup([]Config{ok, deep}, nil)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "above the maximum of 64") {
			t.Errorf("member %d of a group with depth %d: error %v, want the depth bound", i, deep.PipelineDepth, err)
		}
	}
	ok.PipelineDepth = MaxPipelineDepth
	if _, err := Run(ok, nil); err != nil {
		t.Errorf("depth %d: %v", ok.PipelineDepth, err)
	}
}

// TestHostRejectsUnboundedWindow: a statistics frame whose window spans
// 2^64 ps ends the session with an error at once instead of holding the
// host in a months-long solve, and the in-process entry point rejects
// negative and non-finite spans the same way.
func TestHostRejectsUnboundedWindow(t *testing.T) {
	devTr, hostTr := etherlink.LoopbackPair(4)
	host, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []float64{-1e-3, math.NaN(), math.Inf(1), MaxWindowThermalS + 1} {
		if _, err := host.StepWindow(make([]float64, host.NumComponents()), dt); err == nil {
			t.Errorf("StepWindow accepted a %g s span", dt)
		}
	}
	done := make(chan error, 1)
	go func() { done <- host.Serve(hostTr) }()
	ep := etherlink.NewEndpoint(devTr, etherlink.DeviceMAC, etherlink.HostMAC, etherlink.ReliableConfig{})
	start := etherlink.Ctrl{Op: etherlink.CtrlStart, Arg: uint64(host.NumComponents())}
	if err := ep.Send(etherlink.MsgCtrl, start.MarshalPayload()); err != nil {
		t.Fatal(err)
	}
	sb := etherlink.StatsBatch{Windows: []etherlink.Stats{
		{Cycle: 1, WindowPs: math.MaxUint64, PowerUW: make([]uint32, host.NumComponents())}}}
	if err := ep.Send(etherlink.MsgStatsBatch, sb.MarshalPayload()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "thermal time") {
			t.Fatalf("Serve returned %v, want the window-span error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve still solving a 2^64 ps window after a second")
	}
}

// Helpers constructing synthetic snapshot entries.
func cpuStats(active, cycles uint64) cpu.Stats {
	return cpu.Stats{ActiveCycles: active, IdleCycles: cycles - active}
}

func cacheStats(reads uint64) mem.CacheStats {
	return mem.CacheStats{Reads: reads}
}

func ctrlStats(priv, shared uint64) mem.CtrlStats {
	return mem.CtrlStats{PrivateReads: priv, SharedReads: shared}
}

func TestPowerEvaluatorDarkCores(t *testing.T) {
	// A 2-core platform on the 4-core floorplan: cores 2 and 3 sit dark.
	fp := floorplan.FourARM11()
	ev := NewPowerEvaluator(fp)
	prev := emu.Snapshot{Cycle: 0, FreqHz: 500e6}
	cur := emu.Snapshot{Cycle: 1000, FreqHz: 500e6}
	for i := 0; i < 2; i++ {
		prev.Cores = append(prev.Cores, cpu.Stats{})
		cur.Cores = append(cur.Cores, cpu.Stats{ActiveCycles: 1000})
		prev.ICaches = append(prev.ICaches, mem.CacheStats{})
		cur.ICaches = append(cur.ICaches, mem.CacheStats{})
		prev.DCaches = append(prev.DCaches, mem.CacheStats{})
		cur.DCaches = append(cur.DCaches, mem.CacheStats{})
		prev.Ctrls = append(prev.Ctrls, mem.CtrlStats{})
		cur.Ctrls = append(cur.Ctrls, mem.CtrlStats{})
	}
	pw, err := ev.Powers(prev, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pw[fp.Find("core0")] == 0 || pw[fp.Find("core1")] == 0 {
		t.Error("instantiated cores report no power")
	}
	if pw[fp.Find("core2")] != 0 || pw[fp.Find("core3")] != 0 {
		t.Error("dark cores report power")
	}
}

func TestLeakageFeedbackLoop(t *testing.T) {
	// The same run with aggressive leakage must end hotter: the evaluator
	// injects temperature-dependent static power fed back from the
	// previous window.
	base, err := Run(testConfig(t, 20, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgL := testConfig(t, 20, nil)
	leak := power.Default65nm()
	cfgL.Leakage = &leak
	leaky, err := Run(cfgL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if leaky.MaxTempK <= base.MaxTempK {
		t.Errorf("leakage run (%.2f K) not hotter than baseline (%.2f K)",
			leaky.MaxTempK, base.MaxTempK)
	}
}

func TestDVFSCurveReducesThrottledPower(t *testing.T) {
	pol := &tm.ThresholdDFS{HighK: 310, LowK: 305, HighFreqHz: 500e6, LowFreqHz: 100e6}
	cfg := testConfig(t, 30, pol)
	cfg.DVFS = power.Default130nmCurve()
	withDVFS, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol2 := &tm.ThresholdDFS{HighK: 310, LowK: 305, HighFreqHz: 500e6, LowFreqHz: 100e6}
	plain, err := Run(testConfig(t, 30, pol2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compare total power in throttled samples: voltage scaling must cut
	// deeper than frequency scaling alone.
	sum := func(res *Result) (float64, int) {
		var s float64
		n := 0
		for _, smp := range res.Samples {
			if smp.FreqHz == 100e6 {
				for _, w := range smp.CompPowerW {
					s += w
				}
				n++
			}
		}
		return s, n
	}
	sD, nD := sum(withDVFS)
	sP, nP := sum(plain)
	if nD == 0 || nP == 0 {
		t.Skipf("no throttled samples (%d/%d); policy never engaged", nD, nP)
	}
	if sD/float64(nD) >= sP/float64(nP) {
		t.Errorf("DVFS throttled power %.4f W/sample not below DFS-only %.4f W/sample",
			sD/float64(nD), sP/float64(nP))
	}
}
