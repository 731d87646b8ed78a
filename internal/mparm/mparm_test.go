package mparm

import (
	"fmt"
	"math/rand"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/emu"
	"thermemu/internal/workloads"
)

func loadSpec(t *testing.T, p *emu.Platform, s *workloads.Spec) {
	t.Helper()
	if err := p.LoadWorkload(s); err != nil {
		t.Fatal(err)
	}
}

func TestSignalKernelFunctionallyIdentical(t *testing.T) {
	spec, err := workloads.Matrix(2, 8, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Fast kernel.
	fast := emu.MustNew(emu.DefaultConfig(2))
	loadSpec(t, fast, spec)
	fc, fdone := fast.Run(20_000_000)
	if !fdone || fast.Fault() != nil {
		t.Fatalf("fast kernel: done=%v fault=%v", fdone, fast.Fault())
	}
	// Signal kernel on an identical platform.
	slowP := emu.MustNew(emu.DefaultConfig(2))
	loadSpec(t, slowP, spec)
	k := New(slowP)
	sc, sdone := k.Run(20_000_000)
	if !sdone || slowP.Fault() != nil {
		t.Fatalf("signal kernel: done=%v fault=%v", sdone, slowP.Fault())
	}
	// Cycle-identical.
	if fc != sc {
		t.Errorf("cycle counts differ: fast %d, signal %d", fc, sc)
	}
	// Functionally identical results.
	if err := spec.Verify(slowP.ReadSharedWord); err != nil {
		t.Errorf("signal kernel result: %v", err)
	}
	// Statistics recovered from signals match the platform counters.
	if err := k.VerifyObserved(); err != nil {
		t.Error(err)
	}
	// And the two platforms agree counter-for-counter.
	fs, ss := fast.Snapshot(), slowP.Snapshot()
	for i := range fs.Cores {
		if fs.Cores[i] != ss.Cores[i] {
			t.Errorf("core %d stats diverge: %+v vs %+v", i, fs.Cores[i], ss.Cores[i])
		}
		if fs.DCaches[i] != ss.DCaches[i] {
			t.Errorf("dcache %d stats diverge", i)
		}
	}
	if *fs.Bus != *ss.Bus {
		t.Errorf("bus stats diverge: %+v vs %+v", *fs.Bus, *ss.Bus)
	}
}

func TestSignalKernelOnNoC(t *testing.T) {
	cfg := emu.DefaultConfig(4)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Table3NoC(4)
	spec, err := workloads.Dithering(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := emu.MustNew(cfg)
	loadSpec(t, p, spec)
	k := New(p)
	if _, done := k.Run(50_000_000); !done {
		t.Fatal("did not finish")
	}
	if err := spec.Verify(p.ReadSharedWord); err != nil {
		t.Error(err)
	}
	if err := k.VerifyObserved(); err != nil {
		t.Error(err)
	}
	if k.Observed().NocPackets == 0 {
		t.Error("no NoC packets observed through signals")
	}
}

func TestDeltaCycleOverheadStructure(t *testing.T) {
	prog := asm.MustAssemble(`
		addi r1, r0, 200
	loop:
		li   r2, 0x10000000
		sw   r1, 0(r2)
		subi r1, r1, 1
		bne  r1, r0, loop
		halt
	`)
	run := func(cores int) KernelStats {
		p := emu.MustNew(emu.DefaultConfig(cores))
		for i := 0; i < cores; i++ {
			if err := p.LoadProgram(i, prog); err != nil {
				t.Fatal(err)
			}
		}
		k := New(p)
		if _, done := k.Run(1_000_000); !done {
			t.Fatal("did not halt")
		}
		return k.Stats()
	}
	s1 := run(1)
	s4 := run(4)
	// Strictly more deltas than clock cycles: handshake chains add extra
	// delta rounds on cycles with memory traffic.
	if s1.DeltaCycles <= s1.Cycles {
		t.Errorf("deltas %d for %d cycles: handshakes not multi-delta", s1.DeltaCycles, s1.Cycles)
	}
	// Per-cycle evaluation work grows with component count — the signal
	// management overhead of Section 2.
	perCycle1 := float64(s1.Evaluations) / float64(s1.Cycles)
	perCycle4 := float64(s4.Evaluations) / float64(s4.Cycles)
	if perCycle4 < 2*perCycle1 {
		t.Errorf("evaluations/cycle did not scale with cores: %.1f -> %.1f", perCycle1, perCycle4)
	}
	if s1.SignalOps == 0 {
		t.Error("no signal activity")
	}
}

func TestObservedIdleAccounting(t *testing.T) {
	// One core halts immediately; the other spins. Idle cycles must be
	// recovered through the state signal.
	p := emu.MustNew(emu.DefaultConfig(2))
	if err := p.LoadProgram(0, asm.MustAssemble("halt")); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadProgram(1, asm.MustAssemble(`
		addi r1, r0, 100
	loop:
		subi r1, r1, 1
		bne r1, r0, loop
		halt
	`)); err != nil {
		t.Fatal(err)
	}
	k := New(p)
	k.Run(100000)
	if err := k.VerifyObserved(); err != nil {
		t.Fatal(err)
	}
	obs := k.Observed()
	if obs.IdleCycles[0] == 0 {
		t.Error("halted core recorded no idle cycles")
	}
	if obs.ActiveCycles[1] < 200 {
		t.Errorf("spinning core active cycles = %d", obs.ActiveCycles[1])
	}
}

// TestRandomProgramDifferential cross-validates the two kernels on randomly
// generated programs: same registers, same memory, same cycle counts, and
// signal-recovered statistics equal to the platform counters.
func TestRandomProgramDifferential(t *testing.T) {
	ops := []string{"add", "sub", "and", "or", "xor", "nor", "sll", "srl", "sra",
		"slt", "sltu", "mul", "div", "rem"}
	gen := func(r *rand.Rand) string {
		src := "\tli r20, 0x10000000\n\tli r21, 0x4000\n"
		for i := 1; i <= 8; i++ {
			src += fmt.Sprintf("\tli r%d, %d\n", i, r.Intn(1<<16))
		}
		for i := 0; i < 120; i++ {
			switch r.Intn(6) {
			case 0: // load from the private scratch area
				src += fmt.Sprintf("\tlw r%d, %d(r21)\n", 1+r.Intn(8), 4*r.Intn(64))
			case 1: // store to the private scratch area
				src += fmt.Sprintf("\tsw r%d, %d(r21)\n", 1+r.Intn(8), 4*r.Intn(64))
			case 2: // shared-memory traffic (exercises the interconnect)
				src += fmt.Sprintf("\tsw r%d, %d(r20)\n", 1+r.Intn(8), 4*r.Intn(32))
			default:
				op := ops[r.Intn(len(ops))]
				src += fmt.Sprintf("\t%s r%d, r%d, r%d\n",
					op, 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8))
			}
		}
		// Publish a register digest.
		src += "\tadd r10, r0, r0\n"
		for i := 1; i <= 8; i++ {
			src += fmt.Sprintf("\txor r10, r10, r%d\n", i)
		}
		src += "\tsw r10, 0x200(r20)\n\thalt\n"
		return src
	}
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(trial) * 7919))
		im, err := asm.Assemble(gen(r))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cores := 1 + trial%3
		build := func() *emu.Platform {
			p := emu.MustNew(emu.DefaultConfig(cores))
			for c := 0; c < cores; c++ {
				if err := p.LoadProgram(c, im); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
		fast := build()
		fc, fdone := fast.Run(5_000_000)
		slowP := build()
		k := New(slowP)
		sc, sdone := k.Run(5_000_000)
		if fast.Fault() != nil || slowP.Fault() != nil {
			t.Fatalf("trial %d: faults %v / %v", trial, fast.Fault(), slowP.Fault())
		}
		if !fdone || !sdone || fc != sc {
			t.Fatalf("trial %d: cycles %d/%v vs %d/%v", trial, fc, fdone, sc, sdone)
		}
		for c := 0; c < cores; c++ {
			for reg := uint8(0); reg < 32; reg++ {
				if fast.Cores[c].Reg(reg) != slowP.Cores[c].Reg(reg) {
					t.Fatalf("trial %d core %d: r%d differs", trial, c, reg)
				}
			}
		}
		if fast.ReadSharedWord(0x200) != slowP.ReadSharedWord(0x200) {
			t.Fatalf("trial %d: shared digests differ", trial)
		}
		if err := k.VerifyObserved(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
