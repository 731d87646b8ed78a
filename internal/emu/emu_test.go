package emu

import (
	"fmt"
	"strings"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/cpu"
	"thermemu/internal/mem"
	"thermemu/internal/workloads"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := Fig6Config().Validate(); err != nil {
		t.Errorf("fig6 config invalid: %v", err)
	}
	bad := DefaultConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	bad = DefaultConfig(2)
	bad.IC = ICNoC
	if err := bad.Validate(); err == nil {
		t.Error("NoC without spec accepted")
	}
	bad = DefaultConfig(2)
	bad.PrivKB = MaxPrivKB + 1
	if err := bad.Validate(); err == nil {
		t.Error("private memory past the shared range accepted")
	}
	bad = DefaultConfig(2)
	bad.SharedKB = 4194305 // 4 GiB + 1 KiB: wraps to 1 KiB in 32 bits
	if err := bad.Validate(); err == nil {
		t.Error("shared memory past the barrier range accepted")
	}
	if _, err := New(bad); err == nil {
		t.Error("New built a platform whose shared memory size wraps")
	}
	top := DefaultConfig(2)
	top.FreqHz, top.PhysHz = MaxFreqHz, MaxFreqHz
	if err := top.Validate(); err != nil {
		t.Errorf("1 THz clocks refused: %v", err)
	}
	bad = DefaultConfig(2)
	bad.FreqHz = MaxFreqHz + 1
	if err := bad.Validate(); err == nil {
		t.Error("virtual clock above 1 THz accepted")
	}
	bad = DefaultConfig(2)
	bad.PhysHz = 2 * MaxFreqHz
	if err := bad.Validate(); err == nil {
		t.Error("physical clock above 1 THz accepted")
	}
	bad = DefaultConfig(2)
	bad.ICache = &mem.CacheConfig{Name: "x", SizeBytes: 100, LineBytes: 16, Assoc: 1}
	if err := bad.Validate(); err == nil {
		t.Error("invalid cache accepted")
	}
}

func TestICKindStrings(t *testing.T) {
	for k, want := range map[ICKind]string{ICBusOPB: "opb", ICBusPLB: "plb",
		ICBusCustom: "custom-bus", ICNoC: "noc"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

const spinProgram = `
	addi r1, r0, 100
loop:
	subi r1, r1, 1
	bne  r1, r0, loop
	halt
`

func TestRunUntilHalt(t *testing.T) {
	p := MustNew(DefaultConfig(2))
	im := asm.MustAssemble(spinProgram)
	for i := 0; i < 2; i++ {
		if err := p.LoadProgram(i, im); err != nil {
			t.Fatal(err)
		}
	}
	cycles, done := p.Run(100000)
	if !done {
		t.Fatal("did not halt")
	}
	if cycles == 0 || cycles >= 100000 {
		t.Errorf("cycles = %d", cycles)
	}
	if p.TotalInstructions() != 2*(1+100*2+1) {
		t.Errorf("instructions = %d", p.TotalInstructions())
	}
	if p.Fault() != nil {
		t.Errorf("fault: %v", p.Fault())
	}
}

func TestInfoDevice(t *testing.T) {
	p := MustNew(DefaultConfig(3))
	im := asm.MustAssemble(`
		li  r1, 0x22000000
		lw  r2, 0(r1)      ; core id
		lw  r3, 4(r1)      ; ncores
		li  r4, 0x10000000
		slli r5, r2, 2
		add r4, r4, r5
		sw  r3, 0(r4)      ; publish ncores at SHARED+4*id
		halt
	`)
	for i := 0; i < 3; i++ {
		if err := p.LoadProgram(i, im); err != nil {
			t.Fatal(err)
		}
	}
	if _, done := p.Run(10000); !done {
		t.Fatal("did not halt")
	}
	for i := uint32(0); i < 3; i++ {
		if got := p.ReadSharedWord(4 * i); got != 3 {
			t.Errorf("core %d reported ncores=%d", i, got)
		}
	}
}

func TestDFSMidRunKeepsFunctionalBehaviour(t *testing.T) {
	p := MustNew(DefaultConfig(1))
	im := asm.MustAssemble(`
		addi r1, r0, 1000
	loop:
		subi r1, r1, 1
		bne  r1, r0, loop
		li   r2, 0x10000000
		addi r3, r0, 77
		sw   r3, 0(r2)
		halt
	`)
	if err := p.LoadProgram(0, im); err != nil {
		t.Fatal(err)
	}
	p.Step(500)
	p.VPCM.SetFrequency(500e6) // DFS mid-run
	if _, done := p.Run(1_000_000); !done {
		t.Fatal("did not halt")
	}
	if got := p.ReadSharedWord(0); got != 77 {
		t.Errorf("result = %d", got)
	}
	if p.VPCM.DFSEvents() != 1 {
		t.Errorf("DFS events = %d", p.VPCM.DFSEvents())
	}
}

func TestPhysicalLatencySuppressionFlowsToVPCM(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SharedLatency = 2
	cfg.SharedPhysLatency = 20 // DDR slower than the modelled SRAM
	p := MustNew(cfg)
	im := asm.MustAssemble(`
		li  r1, 0x10000000
		lw  r2, 0(r1)
		lw  r3, 4(r1)
		halt
	`)
	if err := p.LoadProgram(0, im); err != nil {
		t.Fatal(err)
	}
	p.Run(10000)
	if got := p.VPCM.SuppressionCycles(); got != 2*(20-2) {
		t.Errorf("suppression = %d cycles, want 36", got)
	}
}

// TestSnifferControlFromSoftware checks the SniffBase range the paper
// reserves for sniffer control: a load there reads 0, and a store neither
// faults nor changes any core statistic, whatever value it writes.
func TestSnifferControlFromSoftware(t *testing.T) {
	var stats []cpu.Stats
	for _, v := range []uint32{0, 1, 0xffffffff} {
		p := MustNew(DefaultConfig(1))
		im := asm.MustAssemble(fmt.Sprintf(`
		li  r1, 0x%x
		li  r3, %d
		sw  r3, 0(r1)
		sw  r3, 252(r1)
		lw  r4, 0(r1)
		lw  r5, 252(r1)
		halt
	`, SniffBase, v))
		if err := p.LoadProgram(0, im); err != nil {
			t.Fatal(err)
		}
		p.Run(10000)
		c := p.Cores[0]
		if !p.AllHalted() || c.Fault() != nil {
			t.Fatalf("store %#x: halted %v, fault %v", v, p.AllHalted(), c.Fault())
		}
		if c.Reg(4) != 0 || c.Reg(5) != 0 {
			t.Errorf("store %#x: loads read %#x and %#x, want 0", v, c.Reg(4), c.Reg(5))
		}
		stats = append(stats, c.Stats())
	}
	for _, st := range stats[1:] {
		if st != stats[0] {
			t.Errorf("store value changed the core statistics: %+v vs %+v", st, stats[0])
		}
	}
}

func TestSnapshotDeltas(t *testing.T) {
	p := MustNew(DefaultConfig(1))
	im := asm.MustAssemble(spinProgram)
	if err := p.LoadProgram(0, im); err != nil {
		t.Fatal(err)
	}
	s0 := p.Snapshot()
	p.Step(50)
	s1 := p.Snapshot()
	if s1.Cycle-s0.Cycle != 50 {
		t.Errorf("cycle delta = %d", s1.Cycle-s0.Cycle)
	}
	if s1.Cores[0].Instructions <= s0.Cores[0].Instructions {
		t.Error("no instruction progress in snapshot")
	}
	if s1.FreqHz != 100e6 {
		t.Errorf("freq = %d", s1.FreqHz)
	}
	if s1.Bus == nil || s1.Noc != nil {
		t.Error("bus platform should snapshot bus stats only")
	}
}

func TestLoadProgramBounds(t *testing.T) {
	p := MustNew(DefaultConfig(1))
	im := asm.MustAssemble(`
		.org 0x100000
		.word 1
	`)
	if err := p.LoadProgram(0, im); err == nil {
		t.Error("oversized image accepted")
	}
	if err := p.LoadProgram(5, asm.MustAssemble("halt")); err == nil {
		t.Error("bad core index accepted")
	}
}

func TestLoadWorkload(t *testing.T) {
	halt := asm.MustAssemble("halt")
	spec := &workloads.Spec{Name: "pair", Programs: []*asm.Image{halt, halt},
		Shared: []workloads.SharedBlock{{Addr: 8, Data: []byte{1, 2, 3, 4}}}}
	if err := MustNew(DefaultConfig(3)).LoadWorkload(spec); err == nil ||
		!strings.Contains(err.Error(), "2 programs for 3 cores") {
		t.Errorf("program/core mismatch: err = %v", err)
	}
	p := MustNew(DefaultConfig(2))
	if err := p.LoadWorkload(spec); err != nil {
		t.Fatal(err)
	}
	if got := p.ReadSharedWord(8); got != 0x04030201 {
		t.Errorf("shared word = %#x, want 0x04030201", got)
	}
	if _, done := p.Run(1000); !done {
		t.Error("loaded programs did not halt")
	}
}

func TestFaultPropagation(t *testing.T) {
	p := MustNew(DefaultConfig(1))
	im := asm.MustAssemble(`
		li r1, 0x70000000
		lw r2, 0(r1)
		halt
	`)
	if err := p.LoadProgram(0, im); err != nil {
		t.Fatal(err)
	}
	p.Run(1000)
	if p.Fault() == nil {
		t.Fatal("expected fault")
	}
	if !strings.Contains(p.Fault().Error(), "unmapped") {
		t.Errorf("fault = %v", p.Fault())
	}
	if !p.AllHalted() {
		t.Error("faulted platform should be halted")
	}
}

func TestBusVsNoCSameResults(t *testing.T) {
	prog := asm.MustAssemble(`
		li  r1, 0x10000000
		addi r2, r0, 50
		add r3, r0, r0
	loop:
		sw  r2, 0(r1)
		lw  r4, 0(r1)
		add r3, r3, r4
		addi r1, r1, 4
		subi r2, r2, 1
		bne r2, r0, loop
		li  r1, 0x10010000
		sw  r3, 0(r1)
		halt
	`)
	run := func(cfg Config) uint32 {
		p := MustNew(cfg)
		if err := p.LoadProgram(0, prog); err != nil {
			t.Fatal(err)
		}
		if _, done := p.Run(1_000_000); !done {
			t.Fatal("did not halt")
		}
		return p.ReadSharedWord(0x10000)
	}
	busResult := run(DefaultConfig(1))
	nocCfg := DefaultConfig(1)
	nocCfg.IC = ICNoC
	nocCfg.NoC = Table3NoC(1)
	nocResult := run(nocCfg)
	if busResult != nocResult {
		t.Errorf("bus %d != noc %d", busResult, nocResult)
	}
}

func TestReportContents(t *testing.T) {
	p := MustNew(DefaultConfig(2))
	im := asm.MustAssemble(`
		li   r1, 0x10000000
		addi r2, r0, 20
	loop:
		sw   r2, 0(r1)
		lw   r3, 0(r1)
		subi r2, r2, 1
		bne  r2, r0, loop
		halt
	`)
	for i := 0; i < 2; i++ {
		if err := p.LoadProgram(i, im); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(1_000_000)
	rep := p.Report()
	for _, want := range []string{"processing cores:", "IPC", "memory subsystem:",
		"icache0", "dcache1", "memctl0", "shared memory:", "interconnect:",
		"opb bus:", "virtual platform clock:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestHeterogeneousCores(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.CoreKinds = Table3Cores(4)
	p := MustNew(cfg)
	if p.Cores[0].Kind() != cpu.PPC405 {
		t.Errorf("core 0 = %v, want ppc405", p.Cores[0].Kind())
	}
	for i := 1; i < 4; i++ {
		if p.Cores[i].Kind() != cpu.Microblaze {
			t.Errorf("core %d = %v, want microblaze", i, p.Cores[i].Kind())
		}
	}
	// The mixed cores run the same binary correctly.
	im := asm.MustAssemble(`
		li  r1, 0x10000000
		li  r2, 0x22000000
		lw  r3, 0(r2)
		slli r4, r3, 2
		add r1, r1, r4
		addi r5, r0, 7
		sw  r5, 0(r1)
		halt
	`)
	for i := 0; i < 4; i++ {
		if err := p.LoadProgram(i, im); err != nil {
			t.Fatal(err)
		}
	}
	if _, done := p.Run(10000); !done {
		t.Fatal("did not halt")
	}
	for i := uint32(0); i < 4; i++ {
		if got := p.ReadSharedWord(4 * i); got != 7 {
			t.Errorf("core %d result = %d", i, got)
		}
	}
}
