package core

import (
	"fmt"
	"reflect"
	"testing"

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

// The depth-0 loop emulates the first cycles of window N+1 while window N
// solves. These tests compare each overlapped run with the same run whose
// policy hides its floor, which turns the overlap off: everything the run
// reports must be identical.

// noFloor passes a policy through but reports an unknown floor, which
// turns the depth-0 overlap off.
type noFloor struct{ tm.Policy }

func (noFloor) FloorHz() uint64 { return 0 }

func (n noFloor) Throttled() bool {
	th, ok := n.Policy.(interface{ Throttled() bool })
	return ok && th.Throttled()
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

func (f *flipPolicy) FloorHz() uint64 { return min(f.hz[0], f.hz[1]) }

// newFlip flips between 200 MHz and the 500 MHz testConfig starts at.
func newFlip() *flipPolicy { return &flipPolicy{hz: [2]uint64{500e6, 200e6}} }

// spanConfig is testConfig with 10 µs windows: 5,000 cycles at 500 MHz, of
// which a 200 MHz floor lets the first 2,000 run during the previous solve.
func spanConfig(t *testing.T, iters int, policy tm.Policy) Config {
	cfg := testConfig(t, iters, policy)
	cfg.WindowPs = 10_000_000
	return cfg
}

// overlapRun is one run's full observable outcome.
type overlapRun struct {
	res  *Result
	err  error
	tr   *golden.Trace
	hist []vpcm.FreqChange
}

// runObserved runs cfg through the fast kernel with a journaling golden
// trace and keeps the VPCM's frequency history.
func runObserved(cfg Config) overlapRun {
	o := overlapRun{tr: golden.NewJournal()}
	cfg.Golden = o.tr
	var plat *emu.Platform
	o.res, o.err = run(cfg, nil, func(p *emu.Platform) (func(uint64), func() error) {
		plat = p
		return p.Step, nil
	})
	if plat != nil {
		o.hist = plat.VPCM.History()
	}
	return o
}

// requireOverlapExact runs the config mk builds with its policy as given
// and with the policy's floor hidden, and requires the two runs to agree
// on samples, DFS events, frequency history, cycles, digest, partial state
// and error. It returns the overlapped run.
func requireOverlapExact(t *testing.T, mk func() Config) overlapRun {
	t.Helper()
	on := runObserved(mk())
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

// TestOverlapMatchesSerialFlippingPolicy re-times every span: each verdict
// changes the frequency.
func TestOverlapMatchesSerialFlippingPolicy(t *testing.T) {
	on := requireOverlapExact(t, func() Config { return spanConfig(t, 8, newFlip()) })
	if on.res.DFSEvents < len(on.res.Samples)-1 {
		t.Fatalf("%d DFS events over %d windows", on.res.DFSEvents, len(on.res.Samples))
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

// TestOverlapIneligible pins where a run that overlaps must not: over a
// link, with event logging, on checkpoint-cut windows and above depth 0.
func TestOverlapIneligible(t *testing.T) {
	cases := map[string]func(*testing.T, *Config) func(){
		"transport": func(t *testing.T, cfg *Config) func() {
			devTr, hostTr := etherlink.LoopbackPair(8)
			cfg.Transport = devTr
			host, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- host.Serve(hostTr) }()
			return func() {
				if err := <-serveErr; err != nil {
					t.Errorf("host serve: %v", err)
				}
			}
		},
		"event-logging": func(t *testing.T, cfg *Config) func() {
			cfg.Platform.EventLogging = true
			return nil
		},
		"checkpoint-every-window": func(t *testing.T, cfg *Config) func() {
			cfg.CheckpointEvery = 1
			cfg.CheckpointSink = func(*checkpoint.Checkpoint) error { return nil }
			return nil
		},
		"depth1": func(t *testing.T, cfg *Config) func() {
			cfg.PipelineDepth = 1
			return nil
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
			wait := setup(t, &cfg)
			res, err := Run(cfg, nil)
			if wait != nil {
				wait()
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.OverlapCycles != 0 {
				t.Fatalf("overlapped %d cycles", res.OverlapCycles)
			}
		})
	}
}
