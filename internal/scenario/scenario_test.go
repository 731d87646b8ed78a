package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"thermemu/internal/emu"
	"thermemu/internal/workloads"
)

// fullFile exercises every section and key of the format.
const fullFile = `thermemu-scenario v1

# A scenario exercising the whole grammar.
[scenario]
name = kitchen-sink

[platform]
cores = 2
ic = noc:ring:4
freq-mhz = 500
priv-kb = 32
shared-kb = 64

[workload]
name = fir
n = 8
iters = 3
size = 16
words = 32

[shared]
0x8000 = 0xdeadbeef 1 2 3
0x9000 = 42

[thermal]
floorplan = arm7
cells = 12
window-ms = 0.5
timescale = 50
pipeline = 2
workers = 1

[tm]
policy = threshold-dfs

[fault]
spec = drop=0.01,delay=2ms
seed = 7
`

func TestParseDefaultsMatchNew(t *testing.T) {
	s, err := Parse(Header + "\n")
	if err != nil {
		t.Fatalf("Parse(header only): %v", err)
	}
	if !reflect.DeepEqual(s, New()) {
		t.Errorf("header-only scenario = %+v, want New() = %+v", s, New())
	}
}

func TestParseFullFile(t *testing.T) {
	s, err := Parse(fullFile)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := &Scenario{
		Name:  "kitchen-sink",
		Cores: 2, IC: "noc:ring:4", FreqMHz: 500, PrivKB: 32, SharedKB: 64,
		Workload: "fir", N: 8, Iters: 3, Size: 16, Words: 32,
		Shared: []SharedWords{
			{Addr: 0x8000, Words: []uint32{0xdeadbeef, 1, 2, 3}},
			{Addr: 0x9000, Words: []uint32{42}},
		},
		Floorplan: "arm7", Cells: 12, WindowMs: 0.5, Timescale: 50, Pipeline: 2, Workers: 1,
		Policy: "threshold-dfs",
		Fault:  "drop=0.01,delay=2ms", FaultSeed: 7,
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("Parse(fullFile) =\n%+v\nwant\n%+v", s, want)
	}
	if err := s.Lint(); err != nil {
		t.Errorf("Lint(fullFile): %v", err)
	}
}

func TestParseInlineProgram(t *testing.T) {
	src := Header + `
[platform]
cores = 2

[program]
start:
	addi r1, r0, 5   ; five
	halt
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Workload != "" {
		t.Errorf("inline scenario kept named workload %q", s.Workload)
	}
	if len(s.Programs) != 1 || s.Programs[0].Core != -1 {
		t.Fatalf("programs = %+v", s.Programs)
	}
	if !strings.Contains(s.Programs[0].Src, "addi r1, r0, 5") {
		t.Errorf("program body lost: %q", s.Programs[0].Src)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	if len(spec.Programs) != 2 {
		t.Errorf("inline [program] replicated to %d cores, want 2", len(spec.Programs))
	}
}

func TestParsePerCorePrograms(t *testing.T) {
	src := Header + `
[platform]
cores = 2

[program 1]
	halt

[program 0]
	addi r1, r0, 1
	halt
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	if spec.Programs[0] == spec.Programs[1] {
		t.Errorf("per-core programs should differ")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "missing"},
		{"no header", "[platform]\ncores = 4\n", "first line"},
		{"bad version", "thermemu-scenario v2\n", "first line"},
		{"unknown section", Header + "\n[nope]\n", "unknown section"},
		{"duplicate section", Header + "\n[platform]\ncores = 2\n[platform]\n", "duplicate section"},
		{"unknown key", Header + "\n[platform]\nspeed = 9\n", "unknown key"},
		{"speculate key", Header + "\n[platform]\npriv-kb = 32\nspeculate = true\n", `line 4: unknown key "speculate"`},
		{"parallel key", Header + "\n[platform]\ncores = 2\nparallel = true\n", `line 4: unknown key "parallel"`},
		{"blocks key", Header + "\n[platform]\ncores = 2\nblocks = true\n", `line 4: unknown key "blocks"`},
		{"duplicate key", Header + "\n[platform]\ncores = 2\ncores = 4\n", "duplicate key"},
		{"key outside section", Header + "\ncores = 4\n", "outside any section"},
		{"no equals", Header + "\n[platform]\ncores\n", "want key = value"},
		{"empty key", Header + "\n[platform]\n= 4\n", "empty key"},
		{"missing value", Header + "\n[platform]\ncores =\n", "no value"},
		{"bad int", Header + "\n[platform]\ncores = many\n", "cores"},
		{"int overflow", Header + "\n[platform]\ncores = 99999999999999\n", "cores"},
		{"bad bool", Header + "\n[scenario]\ndigest = maybe\n", "boolean"},
		{"bad float", Header + "\n[thermal]\nwindow-ms = soon\n", "window-ms"},
		{"inf float", Header + "\n[thermal]\nwindow-ms = 1e999\n", "window-ms"},
		{"unclosed section", Header + "\n[platform\n", "malformed section"},
		{"bad program index", Header + "\n[program x]\n", "malformed program"},
		{"negative program index", Header + "\n[program -1]\n", "malformed program"},
		{"empty program", Header + "\n[program]\n\n[tm]\npolicy = none\n", "empty"},
		{"empty trailing program", Header + "\n[program 0]\n", "empty"},
		{"duplicate program", Header + "\n[program]\nhalt\n[program]\nhalt\n", "duplicate [program]"},
		{"duplicate program N", Header + "\n[program 1]\nhalt\n[program 1]\nhalt\n", "duplicate [program 1]"},
		{"mixed program forms", Header + "\n[program]\nhalt\n[program 0]\nhalt\n", "mix"},
		{"program and workload", Header + "\n[workload]\nname = matrix\n[program]\nhalt\n", "both"},
		{"bad shared addr", Header + "\n[shared]\nzz = 1\n", "address"},
		{"duplicate shared addr", Header + "\n[shared]\n0x10 = 1\n16 = 2\n", "duplicate [shared]"},
		{"shared no words", Header + "\n[shared]\n0x10 =\n", "no words"},
		{"bad shared word", Header + "\n[shared]\n0x10 = 1 x 3\n", "word 1"},
		{"shared word overflow", Header + "\n[shared]\n0x10 = 0x1ffffffff\n", "word 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRenderRoundTrip(t *testing.T) {
	for _, src := range []string{
		Header + "\n",
		fullFile,
		Header + "\n[platform]\ncores = 3\n[program]\n\t; spin\nhalt\n",
		Header + "\n[program 0]\nhalt\n[program 2]\nhalt # not a comment inside a program\n",
		Header + "\n[fault]\nseed = 99\n",
		Header + "\n[scenario]\ndigest = true\n",
		Header + "\n[scenario]\nname = pinned\ndigest = true\n[fault]\nspec = drop=0.01\n",
	} {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse: %v\n%s", err, src)
		}
		s2, err := Parse(s1.Render())
		if err != nil {
			t.Fatalf("reparse of render: %v\n%s", err, s1.Render())
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("round trip changed the scenario:\nfirst  %+v\nsecond %+v\nrender:\n%s", s1, s2, s1.Render())
		}
	}
}

// TestWarnings covers the non-fatal lint tier: a chaos run with thermal
// management off and no digest leaves no evidence the faulty link stayed
// transparent, so the linter flags it — and stays quiet once any evidence
// channel (digest or a policy whose decisions would diverge) is on.
func TestWarnings(t *testing.T) {
	base := func() *Scenario {
		s := New()
		s.Fault = "drop=0.01,dup=0.005"
		return s
	}
	s := base()
	ws := s.Warnings()
	if len(ws) != 1 || !strings.Contains(ws[0], "digest") {
		t.Fatalf("fault+no-tm+no-digest warnings = %q, want the evidence warning", ws)
	}
	if err := s.Lint(); err != nil {
		t.Fatalf("a warning-only scenario must still lint clean: %v", err)
	}

	s = base()
	s.Digest = true
	if ws := s.Warnings(); len(ws) != 0 {
		t.Errorf("digest on: unexpected warnings %q", ws)
	}
	s = base()
	s.Policy = "threshold-dfs"
	if ws := s.Warnings(); len(ws) != 0 {
		t.Errorf("policy on: unexpected warnings %q", ws)
	}
	s = New() // no fault spec at all
	if ws := s.Warnings(); len(ws) != 0 {
		t.Errorf("no fault: unexpected warnings %q", ws)
	}
}

func TestLintCatches(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Scenario)
		want string
	}{
		{"no cores", func(s *Scenario) { s.Cores = 0 }, "cores"},
		{"bad ic", func(s *Scenario) { s.IC = "hyperbus" }, "interconnect"},
		{"negative freq", func(s *Scenario) { s.FreqMHz = -1 }, "freq-mhz"},
		{"no priv", func(s *Scenario) { s.PrivKB = 0 }, "priv-kb"},
		{"no shared", func(s *Scenario) { s.SharedKB = 0 }, "shared-kb"},
		{"priv past shared range", func(s *Scenario) { s.PrivKB = 262145 }, "priv-kb"},
		{"shared wraps", func(s *Scenario) { s.SharedKB = 4194305 }, "shared-kb"},
		{"bad workload", func(s *Scenario) { s.Workload = "fibonacci" }, "unknown workload"},
		{"bad floorplan", func(s *Scenario) { s.Floorplan = "x86" }, "floorplan"},
		{"no cells", func(s *Scenario) { s.Cells = 0 }, "cells"},
		{"zero window", func(s *Scenario) { s.WindowMs = 0 }, "window-ms"},
		{"zero timescale", func(s *Scenario) { s.Timescale = 0 }, "timescale"},
		{"thermal span over cap", func(s *Scenario) { s.WindowMs, s.Timescale = 10, 10000 }, "cap"},
		{"negative pipeline", func(s *Scenario) { s.Pipeline = -1 }, "pipeline"},
		{"negative workers", func(s *Scenario) { s.Workers = -2 }, "workers"},
		{"bad policy", func(s *Scenario) { s.Policy = "cryo" }, "policy"},
		{"bad fault", func(s *Scenario) { s.Fault = "drop=2" }, "fault"},
		{"workload params", func(s *Scenario) { s.Workload = "fir"; s.Words = 30 }, "divide evenly"},
		{"pipeline min cores", func(s *Scenario) { s.Workload = "pipeline"; s.Cores = 1 }, "at least 2"},
		{"unaligned shared", func(s *Scenario) {
			s.Shared = []SharedWords{{Addr: 0x8002, Words: []uint32{1}}}
		}, "word-aligned"},
		{"shared outside memory", func(s *Scenario) {
			s.SharedKB = 32
			s.Shared = []SharedWords{{Addr: 0x8000, Words: []uint32{1}}}
		}, "outside"},
		{"shared overlaps workload", func(s *Scenario) {
			// The fir workload preloads its input stream; collide with it.
			s.Workload = "fir"
			s.Shared = []SharedWords{{Addr: workloads.FIRInBase, Words: []uint32{1, 2}}}
		}, "overlap"},
		{"shared blocks overlap each other", func(s *Scenario) {
			s.Shared = []SharedWords{
				{Addr: 0x8000, Words: []uint32{1, 2, 3}},
				{Addr: 0x8008, Words: []uint32{4}},
			}
		}, "overlap"},
		{"program beyond priv memory", func(s *Scenario) {
			s.PrivKB = 1
		}, "private memory"},
		{"inline core out of range", func(s *Scenario) {
			s.Workload = ""
			s.Programs = []Program{{Core: 7, Src: "halt"}}
		}, "beyond"},
		{"inline core missing", func(s *Scenario) {
			s.Workload = ""
			s.Programs = []Program{{Core: 0, Src: "halt"}}
		}, "no program"},
		{"inline bad asm", func(s *Scenario) {
			s.Workload = ""
			s.Programs = []Program{{Core: -1, Src: "frobnicate r1"}}
		}, "program"},
		{"no workload at all", func(s *Scenario) { s.Workload = "" }, "no workload"},
	}
	// One Linter across every case, the default scenario in between:
	// a shared workload verdict must never leak into a scenario whose
	// workload checks differ.
	var shared Linter
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			tc.edit(s)
			if err := shared.Lint(New()); err != nil {
				t.Fatalf("the shared Linter rejected the default scenario: %v", err)
			}
			if a, b := fmt.Sprint(shared.Lint(s)), fmt.Sprint(s.Lint()); a != b {
				t.Fatalf("the shared Linter says %q, a fresh Lint %q", a, b)
			}
			err := s.Lint()
			if err == nil {
				t.Fatalf("Lint accepted %+v", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := New().Lint(); err != nil {
		t.Errorf("Lint rejected the default scenario: %v", err)
	}
}

func TestLintReportsMultipleProblems(t *testing.T) {
	s := New()
	s.Cores = 0
	s.Policy = "cryo"
	err := s.Lint()
	if err == nil {
		t.Fatal("Lint accepted a doubly-broken scenario")
	}
	for _, want := range []string{"cores", "policy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined lint error %q misses the %s problem", err, want)
		}
	}
}

func TestPlatformMatchesCLIPlumbing(t *testing.T) {
	s := New()
	s.Cores = 4
	s.IC = "noc:mesh:2x2"
	s.FreqMHz = 250
	cfg, err := s.Platform()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IC != emu.ICNoC || cfg.NoC == nil {
		t.Fatalf("IC = %v, NoC = %v", cfg.IC, cfg.NoC)
	}
	if cfg.NoC.MemSwitch != cfg.NoC.Topo.Switches-1 {
		t.Errorf("MemSwitch = %d, want last switch %d", cfg.NoC.MemSwitch, cfg.NoC.Topo.Switches-1)
	}
	if cfg.FreqHz != 250e6 {
		t.Errorf("FreqHz = %d, want 250 MHz", cfg.FreqHz)
	}

	// matrix-tm forces its Figure 6 operating point over any freq-mhz.
	s = New()
	s.Workload = "matrix-tm"
	s.FreqMHz = 100
	cfg, err = s.Platform()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FreqHz != 500e6 {
		t.Errorf("matrix-tm FreqHz = %d, want forced 500 MHz", cfg.FreqHz)
	}
}

func TestSpecAppendsScenarioShared(t *testing.T) {
	s := New()
	s.Shared = []SharedWords{{Addr: 0xF000, Words: []uint32{0xabcd}}}
	spec1, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	// Appending the scenario block twice must not leak into the registry's
	// spec: both builds see exactly one copy.
	n1, n2 := countAt(spec1, 0xF000), countAt(spec2, 0xF000)
	if n1 != 1 || n2 != 1 {
		t.Errorf("scenario shared block appears %d and %d times, want once each", n1, n2)
	}
}

func countAt(spec *workloads.Spec, addr uint32) int {
	n := 0
	for _, b := range spec.Shared {
		if b.Addr == addr {
			n++
		}
	}
	return n
}
