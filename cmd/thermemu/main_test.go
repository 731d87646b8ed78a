package main

import (
	"errors"
	"testing"

	"thermemu/internal/scenario"
)

// TestParseArgsScenario pins the flag-to-scenario mapping: a run starts
// from the default scenario (or the -scenario file), each set flag
// overrides exactly its field, and unset flags leave the scenario alone.
// Scenarios are compared by their canonical rendering.
func TestParseArgsScenario(t *testing.T) {
	const firPath = "../../examples/scenarios/fir.scn"
	fir, err := scenario.Load(firPath)
	if err != nil {
		t.Fatal(err)
	}
	with := func(base *scenario.Scenario, edit func(*scenario.Scenario)) *scenario.Scenario {
		c := *base
		edit(&c)
		return &c
	}
	def := scenario.New()
	cases := []struct {
		name string
		args []string
		want *scenario.Scenario
	}{
		{"no flags", nil, def},
		{"noc ring", []string{"-ic", "noc", "-noc", "ring:4"},
			with(def, func(s *scenario.Scenario) { s.IC = "noc:ring:4" })},
		{"noc default topology", []string{"-ic", "noc"},
			with(def, func(s *scenario.Scenario) { s.IC = "noc:pair" })},
		{"noc topology without noc ic", []string{"-noc", "ring:4"}, def},
		{"bus ic", []string{"-ic", "plb"},
			with(def, func(s *scenario.Scenario) { s.IC = "plb" })},
		{"tm", []string{"-tm"},
			with(def, func(s *scenario.Scenario) { s.Policy = "threshold-dfs" })},
		{"freq", []string{"-freq", "100"},
			with(def, func(s *scenario.Scenario) { s.FreqMHz = 100 })},
		{"thermal and fault flags",
			[]string{"-window", "0.5", "-pipeline", "2", "-timescale", "10", "-cells", "60",
				"-fault", "drop=0.01", "-fault-seed", "7", "-digest"},
			with(def, func(s *scenario.Scenario) {
				s.WindowMs, s.Pipeline, s.Timescale, s.Cells = 0.5, 2, 10, 60
				s.Fault, s.FaultSeed, s.Digest = "drop=0.01", 7, true
			})},
		{"workload flags",
			[]string{"-cores", "2", "-workload", "fir", "-n", "8", "-iters", "3", "-size", "32", "-words", "16"},
			with(def, func(s *scenario.Scenario) {
				s.Cores, s.Workload, s.N, s.Iters, s.Size, s.Words = 2, "fir", 8, 3, 32, 16
			})},
		{"run-control flags only", []string{"-report", "-checkpoint-every", "3", "-csv", "x.csv"}, def},
		{"scenario file", []string{"-scenario", firPath}, fir},
		{"scenario file with override", []string{"-scenario", firPath, "-iters", "3"},
			with(fir, func(s *scenario.Scenario) { s.Iters = 3 })},
		{"scenario file keeps unset fields", []string{"-scenario", firPath, "-tm", "-digest"},
			with(fir, func(s *scenario.Scenario) { s.Policy, s.Digest = "threshold-dfs", true })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := parseArgs(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got.Render(), tc.want.Render(); g != w {
				t.Fatalf("scenario for %q:\n%s\nwant:\n%s", tc.args, g, w)
			}
		})
	}
}

// TestParseArgsOverridesInlinePrograms: -workload on a scenario with
// inline programs selects the named workload instead.
func TestParseArgsOverridesInlinePrograms(t *testing.T) {
	s, _, err := parseArgs([]string{"-scenario", "../../examples/scenarios/inline.scn", "-workload", "matrix"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload != "matrix" || len(s.Programs) != 0 {
		t.Fatalf("workload %q with %d inline programs, want matrix and none", s.Workload, len(s.Programs))
	}
	if err := s.Lint(); err != nil {
		t.Fatalf("overridden scenario does not lint: %v", err)
	}
}

// TestParseArgsRunControl: run-control flags land in the options, not the
// scenario; a bad scenario path and a bad flag are told apart.
func TestParseArgsRunControl(t *testing.T) {
	_, o, err := parseArgs([]string{"-checkpoint", "ck", "-checkpoint-every", "3", "-host", "h:1", "-json", "r.json"})
	if err != nil {
		t.Fatal(err)
	}
	if o.ckptDir != "ck" || o.ckptEvery != 3 || o.host != "h:1" || o.json != "r.json" {
		t.Fatalf("run-control options not parsed: %+v", o)
	}
	if _, _, err := parseArgs([]string{"-scenario", "does-not-exist.scn"}); err == nil || errors.Is(err, errUsage) {
		t.Fatalf("missing scenario file: err = %v, want the load error", err)
	}
	if _, _, err := parseArgs([]string{"-no-such-flag"}); !errors.Is(err, errUsage) {
		t.Fatalf("unknown flag: err = %v, want errUsage", err)
	}
}
