package emu_test

// Shared helpers of the differential conformance tests: the corpus
// workloads at diff-matrix scale, the platforms they run on, and a
// journaled digest run whose failures report the first divergent cycle,
// core and field. The run-ahead kernel must match the per-cycle reference
// (StepOne) on every one of them.

import (
	"testing"

	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/workloads"
)

const (
	diffMaxCycles = 5_000_000
	diffEvery     = 256 // sampling period shared by all runs under test
)

// diffParams sizes every corpus workload small enough that the whole
// matrix stays fast under -race even in single-cycle windows.
var diffParams = workloads.Params{N: 4, Iters: 4, Size: 8, Words: 16}

// diffSpec builds one registry workload at diff-matrix scale. The kind is
// any registered corpus name, so new workloads join the differential tier
// by registering, not by editing this file.
func diffSpec(t *testing.T, kind string, cores int) *workloads.Spec {
	t.Helper()
	p := diffParams
	p.Cores = cores
	s, err := workloads.Build(kind, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// diffKinds returns every corpus workload runnable on `cores` cores.
func diffKinds(cores int) []string {
	var kinds []string
	for _, name := range workloads.Names() {
		if b, _ := workloads.Lookup(name); b.MinCores > cores {
			continue
		}
		kinds = append(kinds, name)
	}
	return kinds
}

func diffConfig(cores int, noc bool) emu.Config {
	cfg := emu.DefaultConfig(cores)
	if noc {
		cfg.IC = emu.ICNoC
		cfg.NoC = emu.Table3NoC(cores)
	}
	return cfg
}

func loadSpec(t *testing.T, p *emu.Platform, s *workloads.Spec) {
	t.Helper()
	if err := p.LoadWorkload(s); err != nil {
		t.Fatal(err)
	}
}

// digestRun executes a fresh platform over the workload and returns its
// journaled golden trace. run receives the platform and must drive it to
// completion, returning the end cycle and the all-halted flag.
func digestRun(t *testing.T, cfg emu.Config, s *workloads.Spec,
	run func(p *emu.Platform, tr *golden.Trace) (uint64, bool)) *golden.Trace {
	t.Helper()
	p := emu.MustNew(cfg)
	loadSpec(t, p, s)
	tr := golden.NewJournal()
	cycles, done := run(p, tr)
	if err := p.Fault(); err != nil {
		t.Fatalf("platform fault after %d cycles: %v", cycles, err)
	}
	if !done {
		t.Fatalf("workload %s did not finish in %d cycles", s.Name, diffMaxCycles)
	}
	if s.Verify != nil {
		if err := s.Verify(p.ReadSharedWord); err != nil {
			t.Fatalf("verification failed after %d cycles: %v", cycles, err)
		}
	}
	return tr
}

// TestRunAheadCacheableSharedMatchesPerCycle covers a cacheable shared
// range, where one instruction's dcache fill plus write-back reaches the
// interconnect. Run-ahead must match the per-cycle sweep in one span and in
// windows that cut its runs short.
func TestRunAheadCacheableSharedMatchesPerCycle(t *testing.T) {
	spec := diffSpec(t, "dithering", 4)
	cfg := diffConfig(4, false)
	cfg.SharedCacheable = true
	want := digestRun(t, cfg, spec,
		func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
			return stepOneDigest(p, diffMaxCycles, diffEvery, tr)
		})
	for _, step := range []uint64{0, 1, 7} {
		step := step
		got := digestRun(t, cfg, spec,
			func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
				if step == 0 {
					return p.RunDigest(diffMaxCycles, diffEvery, tr)
				}
				return stepWindowDigest(p, diffMaxCycles, diffEvery, step, tr)
			})
		if d := golden.Compare(want, got); d != nil {
			t.Errorf("cacheable shared path (step=%d) diverges from per-cycle sweep: %s", step, d)
		}
	}
}
