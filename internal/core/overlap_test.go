package core

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"thermemu/internal/asm"
	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/golden"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/vpcm"
)

// The depth-0 loop emulates the first floor span of window N+1 while
// window N solves. These tests compare each overlapped run with the same
// run whose policy hides its floor, which turns the overlap off:
// everything the run reports must be identical, and the overlapped cycles
// must be exactly one floor span per window.

// noFloor passes a policy through but reports an unknown floor, which
// turns the depth-0 overlap off.
type noFloor struct{ tm.Policy }

func (noFloor) FloorHz() uint64 { return 0 }

func (n noFloor) Throttled() bool {
	th, ok := n.Policy.(interface{ Throttled() bool })
	return ok && th.Throttled()
}

func (n noFloor) CheckpointState() tm.PolicyState {
	if c, ok := n.Policy.(tm.Checkpointable); ok {
		return c.CheckpointState()
	}
	return tm.PolicyState{}
}

func (n noFloor) RestoreCheckpoint(s tm.PolicyState) {
	if c, ok := n.Policy.(tm.Checkpointable); ok {
		c.RestoreCheckpoint(s)
	}
}

// flipPolicy switches between two frequencies on every window, so every
// overlapped span is re-timed.
type flipPolicy struct {
	hz [2]uint64
	n  int
}

func (f *flipPolicy) Name() string { return "flip" }

func (f *flipPolicy) Update([]tm.Sensor) tm.Action {
	f.n++
	return tm.Action{SetFreqHz: f.hz[f.n%2]}
}

func (f *flipPolicy) CheckpointState() tm.PolicyState { return tm.PolicyState{Switches: f.n} }

func (f *flipPolicy) RestoreCheckpoint(s tm.PolicyState) { f.n = s.Switches }

func (f *flipPolicy) FloorHz() uint64 { return min(f.hz[0], f.hz[1]) }

// newFlip flips between 200 MHz and the 500 MHz testConfig starts at:
// 2,000 and 5,000 cycles in spanConfig, with a 2,000-cycle floor span.
func newFlip() *flipPolicy { return &flipPolicy{hz: [2]uint64{500e6, 200e6}} }

// newFlip100 flips between 100 MHz and 500 MHz: 1,000 and 5,000 cycles in
// spanConfig, so every 100 MHz window is one whole floor span.
func newFlip100() *flipPolicy { return &flipPolicy{hz: [2]uint64{500e6, 100e6}} }

// stallPolicy wraps a policy with a solve that returns only once the
// emulate stage has been out of its step function for stallQuiet: slower
// than any overlap the loop can make, so the loop always goes as far as it
// may while a verdict is outstanding, whatever the host's speed.
type stallPolicy struct {
	tm.Policy
	// steps counts the emulate stage's step calls as they begin and end,
	// two per call: odd while one runs.
	steps atomic.Uint64
}

// stallQuiet is far longer than the emulate stage spends between two
// step calls of one window, even under the race detector.
const stallQuiet = 25 * time.Millisecond

func stall(p tm.Policy) *stallPolicy { return &stallPolicy{Policy: p} }

// step runs one step call of the emulate stage, counted.
func (s *stallPolicy) step(n uint64, inner func(uint64)) {
	s.steps.Add(1)
	inner(n)
	s.steps.Add(1)
}

func (s *stallPolicy) Update(sensors []tm.Sensor) tm.Action {
	for last := s.steps.Load(); ; {
		time.Sleep(stallQuiet)
		now := s.steps.Load()
		if now == last && now%2 == 0 {
			break
		}
		last = now
	}
	return s.Policy.Update(sensors)
}

func (s *stallPolicy) CheckpointState() tm.PolicyState {
	return noFloor{s.Policy}.CheckpointState()
}

func (s *stallPolicy) RestoreCheckpoint(st tm.PolicyState) {
	noFloor{s.Policy}.RestoreCheckpoint(st)
}

// spanConfig is testConfig with 10 µs windows: 5,000 cycles at 500 MHz, of
// which a 200 MHz floor lets the first 2,000 run during the previous solve.
func spanConfig(t *testing.T, iters int, policy tm.Policy) Config {
	cfg := testConfig(t, iters, policy)
	cfg.WindowPs = 10_000_000
	return cfg
}

// overlapRun is one run's full observable outcome.
type overlapRun struct {
	res   *Result
	err   error
	tr    *golden.Trace
	hist  []vpcm.FreqChange
	ckpts [][]byte      // every checkpoint cut, encoded
	seen  []sampleState // the platform as each sample was emitted
}

// sampleState is where the platform stood when a window committed.
type sampleState struct {
	end, at         uint64 // the window's end cycle, the platform's cycle
	halted, faulted bool
}

// ahead counts the later windows whose ends the platform had already
// reached when sample i was emitted: 1 when the next window's floor span
// was the whole of it, else 0.
func (o overlapRun) ahead(i int) int {
	n := 0
	for _, later := range o.seen[i+1:] {
		if later.end <= o.seen[i].at {
			n++
		}
	}
	return n
}

// maxAhead is the largest ahead over the run's samples.
func (o overlapRun) maxAhead() int {
	best := 0
	for i := range o.seen {
		best = max(best, o.ahead(i))
	}
	return best
}

// runObserved runs cfg through the fast kernel with a journaling golden
// trace and keeps the VPCM's frequency history, the encoded checkpoints
// and the platform's state at each sample.
func runObserved(cfg Config) overlapRun {
	o := overlapRun{tr: golden.NewJournal()}
	cfg.Golden = o.tr
	if sink := cfg.CheckpointSink; sink != nil {
		cfg.CheckpointSink = func(c *checkpoint.Checkpoint) error {
			o.ckpts = append(o.ckpts, checkpoint.Encode(c))
			return sink(c)
		}
	}
	var plat *emu.Platform
	// The sample callback runs on the emulate stage, which owns the
	// platform.
	onSample := func(s Sample) {
		o.seen = append(o.seen, sampleState{end: s.Cycle, at: plat.VPCM.Cycle(),
			halted: plat.AllHalted(), faulted: plat.Fault() != nil})
	}
	pol := cfg.Policy
	if n, ok := pol.(noFloor); ok {
		pol = n.Policy
	}
	sp, _ := pol.(*stallPolicy)
	o.res, o.err = run(cfg, onSample, func(p *emu.Platform) (func(uint64), func() error) {
		plat = p
		if sp != nil {
			return func(n uint64) { sp.step(n, p.Step) }, nil
		}
		return p.Step, nil
	})
	if plat != nil {
		o.hist = plat.VPCM.History()
	}
	return o
}

// floorSpans is what the depth-0 overlap rule emulates while verdicts are
// outstanding over the committed samples s of a run of cfg: every window
// after the first, unless the window before it cut a checkpoint, overlaps
// its floor span (cut short by the window's own end at a halt or
// MaxCycles). last is the floor span of the window after the last sample.
func floorSpans(cfg Config, s []Sample) (total, last uint64) {
	floor := uint64(math.MaxUint64)
	if cfg.Policy != nil {
		floor = cfg.Policy.FloorHz()
	}
	every := 0
	if cfg.CheckpointSink != nil {
		every = max(cfg.CheckpointEvery, 1)
	}
	span := func(hz uint64) uint64 { return windowCycles(cfg.WindowPs, min(hz, floor)) }
	for i := 1; i < len(s); i++ {
		if every == 0 || i%every != 0 {
			total += min(span(s[i-1].FreqHz), s[i].Cycle-s[i-1].Cycle)
		}
	}
	if len(s) > 0 {
		last = span(s[len(s)-1].FreqHz)
	}
	return total, last
}

// requireOverlapExact runs the config mk builds with its policy as given
// and with the policy's floor hidden, and requires the two runs to agree
// on samples, DFS events, frequency history, cycles, digest, partial state
// and error. The overlapped run must have emulated exactly one floor span
// per window while verdicts were outstanding; an aborted one may add one
// more floor span in the window it did not commit. It returns the
// overlapped run.
func requireOverlapExact(t *testing.T, mk func() Config) overlapRun {
	t.Helper()
	onCfg := mk()
	on := runObserved(onCfg)
	cfg := mk()
	cfg.Policy = noFloor{cfg.Policy}
	off := runObserved(cfg)

	if on.res == nil || off.res == nil {
		t.Fatalf("no result: overlapped err %v, serial err %v", on.err, off.err)
	}
	if fmt.Sprint(on.err) != fmt.Sprint(off.err) {
		t.Fatalf("errors differ: overlapped %v, serial %v", on.err, off.err)
	}
	if off.res.OverlapCycles != 0 {
		t.Fatalf("a policy with no floor still overlapped %d cycles", off.res.OverlapCycles)
	}
	if on.res.OverlapCycles == 0 {
		t.Fatal("the overlapped run overlapped nothing")
	}
	want, last := floorSpans(onCfg, on.res.Samples)
	if got := on.res.OverlapCycles; got != want && (on.err == nil || got < want || got > want+last) {
		t.Fatalf("overlapped %d cycles, want one floor span per window: %d (aborted: %v)", got, want, on.err != nil)
	}
	if got := on.maxAhead(); got > 1 {
		t.Fatalf("the loop reached %d window ends ahead of a verdict, past the next floor span", got)
	}
	a, b := on.res, off.res
	if a.Cycles != b.Cycles || a.VirtualS != b.VirtualS || a.DFSEvents != b.DFSEvents ||
		a.Done != b.Done || a.Partial != b.Partial || a.MaxTempK != b.MaxTempK {
		t.Fatalf("run summaries differ:\noverlapped %d cy %.9fs dfs %d done %v partial %v max %v\nserial     %d cy %.9fs dfs %d done %v partial %v max %v",
			a.Cycles, a.VirtualS, a.DFSEvents, a.Done, a.Partial, a.MaxTempK,
			b.Cycles, b.VirtualS, b.DFSEvents, b.Done, b.Partial, b.MaxTempK)
	}
	if !reflect.DeepEqual(on.hist, off.hist) {
		t.Fatalf("frequency histories differ:\noverlapped %+v\nserial     %+v", on.hist, off.hist)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: overlapped %d, serial %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if !reflect.DeepEqual(a.Samples[i], b.Samples[i]) {
			t.Fatalf("sample %d differs:\noverlapped %+v\nserial     %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	if !reflect.DeepEqual(a.FinalSnap, b.FinalSnap) {
		t.Fatal("final snapshots differ")
	}
	if d := golden.Compare(on.tr, off.tr); d != nil {
		t.Fatalf("digests differ: %v", d)
	}
	if len(on.ckpts) != len(off.ckpts) {
		t.Fatalf("checkpoint counts differ: overlapped %d, serial %d", len(on.ckpts), len(off.ckpts))
	}
	for i := range on.ckpts {
		if !reflect.DeepEqual(on.ckpts[i], off.ckpts[i]) {
			t.Fatalf("checkpoint %d differs", i)
		}
	}
	return on
}

// TestOverlapMatchesSerialFig6 is the paper's Figure 6 loop (threshold
// DFS, 500/100 MHz) at the bench/ fig6 window and time scale: the die
// heats through the thresholds, so verdicts re-time overlapped spans.
func TestOverlapMatchesSerialFig6(t *testing.T) {
	on := requireOverlapExact(t, func() Config {
		cfg, err := Fig6Config(30, true)
		if err != nil {
			t.Fatal(err)
		}
		cfg.WindowPs = 100_000_000
		cfg.ThermalTimeScale = 4000
		return cfg
	})
	if on.res.DFSEvents == 0 || !on.res.Done {
		t.Fatalf("fig6 run: %d DFS events, done %v; want a finished run with DFS", on.res.DFSEvents, on.res.Done)
	}
	t.Logf("%d of %d cycles overlapped, %d DFS events", on.res.OverlapCycles, on.res.Cycles, on.res.DFSEvents)
}

// TestOverlapMatchesSerialFlippingPolicy re-times every floor span: each
// verdict changes the frequency. At 500/200 MHz each span is part of its
// window; at 500/100 MHz ("run-ahead", named for the mechanism this case
// once covered) every 100 MHz window is one whole span.
func TestOverlapMatchesSerialFlippingPolicy(t *testing.T) {
	for name, mk := range map[string]func() *flipPolicy{
		"floor-span": newFlip,
		"run-ahead":  newFlip100,
	} {
		t.Run(name, func(t *testing.T) {
			on := requireOverlapExact(t, func() Config { return spanConfig(t, 8, mk()) })
			if on.res.DFSEvents < len(on.res.Samples)-1 {
				t.Fatalf("%d DFS events over %d windows", on.res.DFSEvents, len(on.res.Samples))
			}
		})
	}
}

// TestOverlapMatchesSerialHaltInSpan: with the null policy every window
// after the first is emulated whole during the previous solve, so the
// cores halt inside an overlapped span.
func TestOverlapMatchesSerialHaltInSpan(t *testing.T) {
	on := requireOverlapExact(t, func() Config { return spanConfig(t, 3, tm.NullPolicy{}) })
	s := on.res.Samples
	if len(s) < 2 || !on.res.Done {
		t.Fatalf("%d windows, done %v: want a finished multi-window run", len(s), on.res.Done)
	}
	if last := s[len(s)-1].Cycle - s[len(s)-2].Cycle; last >= 5_000 {
		t.Fatalf("the last window ran %d cycles: the halt did not cut it short", last)
	}
}

// TestOverlapMatchesSerialMaxCyclesInSpan caps the run 1,000 cycles into
// window 2, inside its 2,000-cycle span.
func TestOverlapMatchesSerialMaxCyclesInSpan(t *testing.T) {
	on := requireOverlapExact(t, func() Config {
		cfg := spanConfig(t, 4, newFlip())
		cfg.MaxCycles = 6_000
		return cfg
	})
	if on.res.Cycles != 6_000 || on.res.OverlapCycles != 1_000 {
		t.Fatalf("ran %d cycles, %d overlapped; want 6000 and 1000", on.res.Cycles, on.res.OverlapCycles)
	}
}

// TestOverlapMatchesSerialFaultInSpan faults core 0 about 80,000 cycles
// in, inside a null-policy run's whole-window span: the Partial result must
// be the serial one.
func TestOverlapMatchesSerialFaultInSpan(t *testing.T) {
	faulty := asm.MustAssemble(`
		li   r1, 40000
	loop:
		subi r1, r1, 1
		bne  r1, r0, loop
		li   r2, 0x70000000
		lw   r3, 0(r2)
		halt
	`)
	on := requireOverlapExact(t, func() Config {
		cfg := spanConfig(t, 20, tm.NullPolicy{})
		spec := *cfg.Workload
		spec.Programs = append([]*asm.Image{faulty}, spec.Programs[1:]...)
		spec.Verify = nil
		cfg.Workload = &spec
		return cfg
	})
	if on.err == nil || !on.res.Partial {
		t.Fatalf("err %v, partial %v: want the fault's partial result", on.err, on.res.Partial)
	}
	if on.res.Cycles < 5_000 {
		t.Fatalf("the fault landed in window 1 (committed %d cycles), which nothing overlaps", on.res.Cycles)
	}
}

// TestOverlapIneligible pins where a run that overlaps must not: on
// checkpoint-cut windows and above depth 0.
func TestOverlapIneligible(t *testing.T) {
	cases := map[string]func(*testing.T, *Config){
		"checkpoint-every-window": func(t *testing.T, cfg *Config) {
			cfg.CheckpointEvery = 1
			cfg.CheckpointSink = func(*checkpoint.Checkpoint) error { return nil }
		},
		"depth1": func(t *testing.T, cfg *Config) {
			cfg.PipelineDepth = 1
		},
	}
	res, err := Run(spanConfig(t, 2, tm.NewThresholdDFS()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlapCycles == 0 {
		t.Fatal("the eligible run overlapped nothing")
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := spanConfig(t, 2, tm.NewThresholdDFS())
			setup(t, &cfg)
			res, err := Run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.OverlapCycles != 0 {
				t.Fatalf("overlapped %d cycles", res.OverlapCycles)
			}
		})
	}
}

// TestOverlapOverLinkMatchesSerial: depth 0 overlaps over the link as it
// does in process. The dispatcher on the solve stage only accounts frozen
// time, so the emulate stage runs each floor span while statistics and
// temperatures cross a loopback link, clean or dropping 1.5% of the frames
// each way, and everything the run reports matches the run with the
// policy's floor hidden. A 1 ms solve is slow enough for the emulate stage
// to finish its floor span on every window, and the die heats through the
// DFS thresholds, so verdicts re-time cycles run while frames were in
// flight. The lossy link's seed drops frames in both runs.
func TestOverlapOverLinkMatchesSerial(t *testing.T) {
	for name, drop := range map[string]float64{"clean": 0, "lossy": 0.015} {
		t.Run(name, func(t *testing.T) {
			var faults []*etherlink.FaultTransport // one per run
			on := requireOverlapExact(t, func() Config {
				cfg := spanConfig(t, 40, &slowPolicy{tm.NewThresholdDFS(), time.Millisecond})
				cfg.ThermalTimeScale = 8000 // the die crosses the DFS thresholds
				cfg.Link = etherlink.ReliableConfig{RetryTimeout: 20 * time.Millisecond, MaxRetries: 500}
				devTr, hostTr := etherlink.LoopbackPair(8)
				cfg.Transport = devTr
				if drop > 0 {
					fc := etherlink.FaultConfig{Drop: drop}
					ft := etherlink.NewFaultTransport(devTr, 1, fc, fc)
					faults = append(faults, ft)
					cfg.Transport = ft
				}
				host, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				serveErr := make(chan error, 1)
				go func() { serveErr <- host.ServeWith(hostTr, ServeOptions{Link: cfg.Link}) }()
				t.Cleanup(func() {
					if err := <-serveErr; err != nil {
						t.Errorf("host serve: %v", err)
					}
				})
				return cfg
			})
			for _, ft := range faults {
				if send, recv := ft.Counts(); send.Dropped+recv.Dropped == 0 {
					t.Fatalf("the lossy link dropped nothing: %+v, %+v", send, recv)
				}
			}
			t.Logf("%d windows, %d DFS events, %d of %d cycles overlapped; %s",
				len(on.res.Samples), on.res.DFSEvents, on.res.OverlapCycles, on.res.Cycles, on.res.Link)
		})
	}
}

// TestOverlapSlowSolveStopsAtFloorSpan: however slow the solve, the loop
// emulates only the next window's floor span (500/100 MHz, flipping each
// window) while a verdict is outstanding, and every verdict re-times it.
func TestOverlapSlowSolveStopsAtFloorSpan(t *testing.T) {
	on := requireOverlapExact(t, func() Config { return spanConfig(t, 4, stall(newFlip100())) })
	t.Logf("%d windows, %d of %d cycles overlapped", len(on.res.Samples), on.res.OverlapCycles, on.res.Cycles)
}

// TestOverlapProportionalKeepsFloorSpan: the proportional policy's windows
// at the fig6 window are 10,000 to 50,000 cycles (its 300 MHz window is
// 30,003: the period rounds down to 3,333 ps), and the loop overlaps
// exactly the first 10,000-cycle floor span of each.
func TestOverlapProportionalKeepsFloorSpan(t *testing.T) {
	on := requireOverlapExact(t, func() Config {
		cfg, err := Fig6Config(30, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = tm.NewProportionalDFS()
		cfg.WindowPs = 100_000_000
		cfg.ThermalTimeScale = 4000
		return cfg
	})
	if on.res.DFSEvents == 0 {
		t.Fatal("no DFS events: no floor span was re-timed")
	}
}

// TestOverlapSlowSolveMaxCyclesInSpan caps the run at 12,500 cycles,
// inside the 1,000-cycle floor span of the fifth window (500 MHz from
// 12,000), which a slow solve lets the loop reach while window 4 is
// unresolved.
func TestOverlapSlowSolveMaxCyclesInSpan(t *testing.T) {
	const cap = 12_500
	on := requireOverlapExact(t, func() Config {
		cfg := spanConfig(t, 4, stall(newFlip100()))
		cfg.MaxCycles = cap
		return cfg
	})
	if on.res.Cycles != cap {
		t.Fatalf("ran %d cycles, want %d", on.res.Cycles, cap)
	}
	for i, st := range on.seen {
		if st.at == cap && on.ahead(i) == 1 {
			return
		}
	}
	t.Fatal("the loop never reached MaxCycles inside a floor span")
}

// TestOverlapSlowSolveHaltInSpan: with a slow solve and no policy every
// window after the first is one whole floor span, so the cores halt while
// the previous window's verdict is outstanding.
func TestOverlapSlowSolveHaltInSpan(t *testing.T) {
	on := requireOverlapExact(t, func() Config {
		return spanConfig(t, 3, stall(tm.NullPolicy{}))
	})
	if !on.res.Done {
		t.Fatal("the run did not finish")
	}
	for i, st := range on.seen {
		if st.halted && on.ahead(i) == 1 {
			return
		}
	}
	t.Fatal("the cores never halted inside a floor span")
}

// TestOverlapSlowSolveFaultInSpan faults core 0 about 80,000 cycles in,
// inside a whole-window floor span of a slow solve: the window before the
// fault commits after the fault was seen, no later one does, and the
// Partial result is the serial one.
func TestOverlapSlowSolveFaultInSpan(t *testing.T) {
	faulty := asm.MustAssemble(`
		li   r1, 40000
	loop:
		subi r1, r1, 1
		bne  r1, r0, loop
		li   r2, 0x70000000
		lw   r3, 0(r2)
		halt
	`)
	on := requireOverlapExact(t, func() Config {
		cfg := spanConfig(t, 20, stall(tm.NullPolicy{}))
		spec := *cfg.Workload
		spec.Programs = append([]*asm.Image{faulty}, spec.Programs[1:]...)
		spec.Verify = nil
		cfg.Workload = &spec
		return cfg
	})
	if on.err == nil || !on.res.Partial {
		t.Fatalf("err %v, partial %v: want the fault's partial result", on.err, on.res.Partial)
	}
	after := 0
	for _, st := range on.seen {
		if st.faulted {
			after++
		}
	}
	if after != 1 {
		t.Fatalf("%d windows committed after the fault was seen, want 1", after)
	}
}

// TestOverlapSlowSolveCheckpointCadence cuts a checkpoint every fourth
// window of a slow flipping run: the window after each cut overlaps
// nothing, the others their floor span, and every checkpoint is the
// serial run's, byte for byte.
func TestOverlapSlowSolveCheckpointCadence(t *testing.T) {
	on := requireOverlapExact(t, func() Config {
		cfg := spanConfig(t, 16, stall(newFlip100()))
		cfg.CheckpointEvery = 4
		cfg.CheckpointSink = func(*checkpoint.Checkpoint) error { return nil }
		return cfg
	})
	t.Logf("%d windows, %d checkpoints", len(on.seen), len(on.ckpts))
	if len(on.ckpts) < 3 {
		t.Fatalf("%d checkpoints, want >= 3", len(on.ckpts))
	}
}
