package emu_test

// Differential conformance matrix for the deterministic parallel kernel:
// every seed workload, on both interconnect families, at 1/2/4 cores, must
// produce bit-identical golden digests from the serial kernel, from serial
// stepping of a Parallel-built platform, and from RunParallel at every
// chunk size — run after run. Failures report the first divergent cycle,
// core and field via the journaled traces.

import (
	"fmt"
	"testing"

	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/mem"
	"thermemu/internal/workloads"
)

const (
	diffMaxCycles = 5_000_000
	diffEvery     = 256 // sampling period shared by all runs under test
)

// diffParams sizes every corpus workload small enough that the whole
// matrix stays fast under -race even at chunk size 1.
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

func diffConfig(cores int, noc, parallel bool) emu.Config {
	cfg := emu.DefaultConfig(cores)
	cfg.Parallel = parallel
	if noc {
		cfg.IC = emu.ICNoC
		cfg.NoC = emu.Table3NoC(cores)
	}
	return cfg
}

func loadSpec(t *testing.T, p *emu.Platform, s *workloads.Spec) {
	t.Helper()
	for i, im := range s.Programs {
		if err := p.LoadProgram(i, im); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range s.Shared {
		p.WriteShared(b.Addr, b.Data)
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

func TestDifferentialSerialVsParallel(t *testing.T) {
	for _, ic := range []struct {
		name string
		noc  bool
	}{{"bus", false}, {"noc", true}} {
		for _, cores := range []int{1, 2, 4} {
			for _, kind := range diffKinds(cores) {
				t.Run(fmt.Sprintf("%s/%s/%dc", ic.name, kind, cores), func(t *testing.T) {
					spec := diffSpec(t, kind, cores)
					want := digestRun(t, diffConfig(cores, ic.noc, false), spec,
						func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
							return p.RunDigest(diffMaxCycles, diffEvery, tr)
						})

					// Serial stepping of a Parallel-built platform: the
					// shared-path gates must be transparent.
					got := digestRun(t, diffConfig(cores, ic.noc, true), spec,
						func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
							return p.RunDigest(diffMaxCycles, diffEvery, tr)
						})
					if d := golden.Compare(want, got); d != nil {
						t.Errorf("serial step of parallel platform diverges: %s", d)
					}

					for _, chunk := range []uint64{1, 64, emu.DefaultChunk} {
						chunk := chunk
						got := digestRun(t, diffConfig(cores, ic.noc, true), spec,
							func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
								return p.RunParallelDigest(chunk, diffMaxCycles, diffEvery, tr)
							})
						if d := golden.Compare(want, got); d != nil {
							t.Errorf("chunk %d diverges from serial: %s", chunk, d)
						}
					}
				})
			}
		}
	}
}

// TestParallelReproducible asserts run-to-run determinism of the parallel
// kernel itself: two identical parallel runs must produce identical digests
// (the old kernel resolved contention in host-arrival order and failed
// this).
func TestParallelReproducible(t *testing.T) {
	spec := diffSpec(t, "locks", 4)
	run := func() *golden.Trace {
		return digestRun(t, diffConfig(4, false, true), spec,
			func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
				return p.RunParallelDigest(64, diffMaxCycles, diffEvery, tr)
			})
	}
	a, b := run(), run()
	if d := golden.Compare(a, b); d != nil {
		t.Fatalf("parallel kernel is not reproducible: %s", d)
	}
}

// TestParallelL2Differential covers the L2-equipped shared path (cache fill
// plus write-back inside one granted instruction).
func TestParallelL2Differential(t *testing.T) {
	spec := diffSpec(t, "dithering", 4)
	mk := func(parallel bool) emu.Config {
		cfg := diffConfig(4, false, parallel)
		cfg.SharedCacheable = true
		cfg.L2 = &mem.CacheConfig{Name: "l2", SizeBytes: 8 * 1024, LineBytes: 16, Assoc: 2, HitLatency: 1}
		return cfg
	}
	want := digestRun(t, mk(false), spec,
		func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
			return p.RunDigest(diffMaxCycles, diffEvery, tr)
		})
	got := digestRun(t, mk(true), spec,
		func(p *emu.Platform, tr *golden.Trace) (uint64, bool) {
			return p.RunParallelDigest(64, diffMaxCycles, diffEvery, tr)
		})
	if d := golden.Compare(want, got); d != nil {
		t.Fatalf("L2 shared path diverges: %s", d)
	}
}
