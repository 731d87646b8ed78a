package emu_test

// Conformance suite for the event-driven skip-ahead kernel: Step/Run must
// be bit-identical to the retired per-cycle sweep (StepOne), which stays in
// the tree as the executable reference. Every statistic, event log and
// activity counter is compared — not just architectural state — because
// the skip kernel settles stall/idle spans in bulk and the accrual
// bookkeeping is exactly what could silently drift.

import (
	"fmt"
	"testing"

	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/sniffer"
	"thermemu/internal/workloads"
)

// stepOneDigest drives the platform one cycle at a time with StepOne — the
// per-cycle reference sweep — while journaling digests at exactly the same
// window boundaries as Platform.RunDigest, so the two traces are directly
// comparable.
func stepOneDigest(p *emu.Platform, maxCycles, every uint64, tr *golden.Trace) (uint64, bool) {
	for p.VPCM.Cycle() < maxCycles && !p.AllHalted() {
		n := every
		if left := maxCycles - p.VPCM.Cycle(); n > left {
			n = left
		}
		target := p.VPCM.Cycle() + n
		for p.VPCM.Cycle() < target && !p.AllHalted() {
			p.StepOne()
		}
		emu.DigestSnapshot(tr, p.Snapshot())
	}
	p.DigestInto(tr)
	return p.VPCM.Cycle(), p.AllHalted()
}

// stepWindowDigest drives the platform through the skip-ahead kernel in
// windows of `step` cycles (cutting stall spans at arbitrary boundaries),
// journaling at `every`-cycle boundaries like RunDigest.
func stepWindowDigest(p *emu.Platform, maxCycles, every, step uint64, tr *golden.Trace) (uint64, bool) {
	for p.VPCM.Cycle() < maxCycles && !p.AllHalted() {
		n := every
		if left := maxCycles - p.VPCM.Cycle(); n > left {
			n = left
		}
		target := p.VPCM.Cycle() + n
		for p.VPCM.Cycle() < target && !p.AllHalted() {
			w := step
			if left := target - p.VPCM.Cycle(); w > left {
				w = left
			}
			p.Step(w)
		}
		emu.DigestSnapshot(tr, p.Snapshot())
	}
	p.DigestInto(tr)
	return p.VPCM.Cycle(), p.AllHalted()
}

// TestSkipAheadMatchesPerCycle is the core bit-identity claim: for every
// seed workload, interconnect family and core count, the skip-ahead kernel
// produces the same golden trace as the per-cycle sweep — when driven in
// one span, in single-cycle Step(1) windows (a boundary flush every cycle)
// and in odd-sized windows that cut stall spans mid-flight.
func TestSkipAheadMatchesPerCycle(t *testing.T) {
	for _, ic := range []struct {
		name string
		noc  bool
	}{{"bus", false}, {"noc", true}} {
		for _, cores := range []int{1, 2, 4} {
			for _, kind := range diffKinds(cores) {
				t.Run(fmt.Sprintf("%s/%s/%dc", ic.name, kind, cores), func(t *testing.T) {
					spec := diffSpec(t, kind, cores)
					want := digestRun(t, diffConfig(cores, ic.noc), spec,
						func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
							return stepOneDigest(p, diffMaxCycles, diffEvery, tr)
						})
					for _, step := range []uint64{0, 1, 7} {
						step := step
						name := "run"
						if step > 0 {
							name = fmt.Sprintf("step=%d", step)
						}
						got := digestRun(t, diffConfig(cores, ic.noc), spec,
							func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
								if step == 0 {
									return p.RunDigest(diffMaxCycles, diffEvery, tr)
								}
								return stepWindowDigest(p, diffMaxCycles, diffEvery, step, tr)
							})
						if d := golden.Compare(want, got); d != nil {
							t.Errorf("skip-ahead (%s) diverges from per-cycle sweep: %s", name, d)
						}
					}
				})
			}
		}
	}
}

// TestEventLogsIdenticalUnderSkipAhead runs an event-logging platform under
// both kernels and compares the BRAM event streams verbatim: same events,
// same cycle stamps, same order. Bulk accrual must not perturb logging
// because stalled and halted cores issue no accesses.
func TestEventLogsIdenticalUnderSkipAhead(t *testing.T) {
	spec := diffSpec(t, "membound", 2)
	const maxCycles = 200_000
	run := func(perCycle bool) []sniffer.Event {
		cfg := diffConfig(2, false)
		cfg.EventLogging = true
		cfg.EventBufCap = 1 << 20
		p := emu.MustNew(cfg)
		loadSpec(t, p, spec)
		if perCycle {
			for p.VPCM.Cycle() < maxCycles && !p.AllHalted() {
				p.StepOne()
			}
		} else {
			p.Run(maxCycles)
		}
		if !p.AllHalted() {
			t.Fatalf("workload %s did not finish in %d cycles", spec.Name, uint64(maxCycles))
		}
		out := make([]sniffer.Event, p.Ring.Len())
		p.Ring.Drain(out)
		return out
	}
	want := run(true)
	got := run(false)
	if len(want) == 0 {
		t.Fatal("per-cycle run logged no events")
	}
	if len(want) != len(got) {
		t.Fatalf("event counts diverge: per-cycle %d, skip-ahead %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d diverges: per-cycle %+v, skip-ahead %+v", i, want[i], got[i])
		}
	}
}

// TestActivitySniffersMatchCoreStats checks the sniffer choke point: the
// per-core activity counters must equal the core's own statistics under the
// per-cycle sweep and under the run-ahead kernel.
func TestActivitySniffersMatchCoreStats(t *testing.T) {
	spec := diffSpec(t, "membound", 2)
	const maxCycles = 200_000
	check := func(t *testing.T, p *emu.Platform, acts []*sniffer.Activity) {
		t.Helper()
		for i, c := range p.Cores {
			st := c.Stats()
			a := acts[i]
			if a.Count(sniffer.ModeActive) != st.ActiveCycles ||
				a.Count(sniffer.ModeStalled) != st.StallCycles ||
				a.Count(sniffer.ModeIdle) != st.IdleCycles {
				t.Errorf("core %d: sniffer (%d/%d/%d) != stats (%d/%d/%d)", i,
					a.Count(sniffer.ModeActive), a.Count(sniffer.ModeStalled), a.Count(sniffer.ModeIdle),
					st.ActiveCycles, st.StallCycles, st.IdleCycles)
			}
		}
	}
	for _, mode := range []string{"percycle", "serial"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			p := emu.MustNew(diffConfig(2, false))
			acts := p.AttachActivitySniffers()
			loadSpec(t, p, spec)
			var done bool
			switch mode {
			case "percycle":
				for p.VPCM.Cycle() < maxCycles && !p.AllHalted() {
					p.StepOne()
				}
				done = p.AllHalted()
			case "serial":
				_, done = p.Run(maxCycles)
			}
			if !done {
				t.Fatalf("workload %s did not finish", spec.Name)
			}
			check(t, p, acts)
		})
	}
}

// TestSkipStatsTelemetry pins the telemetry semantics on a single-core
// stall-bound run: every skipped cycle is a stall cycle (Run stops one past
// the halt, so no idle tail), every executed Step is an active cycle, and
// the event count stays far below the cycle count — the whole point of the
// kernel.
func TestSkipStatsTelemetry(t *testing.T) {
	spec, err := workloads.MemBound(1, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := emu.MustNew(emu.DefaultConfig(1))
	loadSpec(t, p, spec)
	cycles, done := p.Run(5_000_000)
	if !done {
		t.Fatal("membound did not finish")
	}
	st := p.Cores[0].Stats()
	sk := p.SkipStats()
	if sk.SkippedCycles == 0 {
		t.Fatal("stall-bound run skipped nothing")
	}
	if sk.SkippedCycles != st.StallCycles {
		t.Errorf("skipped %d cycles, core stalled %d", sk.SkippedCycles, st.StallCycles)
	}
	if sk.CoreSteps != st.ActiveCycles {
		t.Errorf("executed %d steps, core active %d cycles", sk.CoreSteps, st.ActiveCycles)
	}
	if sk.EventCycles >= cycles {
		t.Errorf("event cycles %d not below total %d — no skipping happened", sk.EventCycles, cycles)
	}
	// The books must balance: every cycle is either swept or skipped.
	if got := st.Cycles(); got != cycles {
		t.Errorf("core accounted %d cycles of %d", got, cycles)
	}
}
