package emu_test

// Kernel throughput baseline: emulated cycles per host second for the
// emulation kernel, on the Table 3 matrix
// workload (compute-bound: cores run from private memory, little to skip)
// and on the MEMBOUND streaming workload (stall-bound: uncached shared
// loads, the case the skip-ahead kernel accelerates). CI records the output
// as BENCH_emu.json and cmd/benchgate enforces no cycles/s regression
// against the committed baseline, so future kernel PRs can prove they
// changed nothing but speed (their golden digests must not move; these
// numbers should only go up). Each row also reports core-cycles/s (emulated
// cycles × cores per host second) and instr/s (committed instructions per
// host second), which compare fairly across core counts, and maxprocs, so
// rows recorded at `-cpu 1,2` stay apart. The kernel is the ordered
// run-ahead loop over translated blocks.

import (
	"fmt"
	"runtime"
	"testing"

	"thermemu/internal/emu"
	"thermemu/internal/workloads"
)

const benchMaxCycles = 50_000_000

func benchSpec(b *testing.B, stall bool, cores int) *workloads.Spec {
	b.Helper()
	var (
		spec *workloads.Spec
		err  error
	)
	if stall {
		spec, err = workloads.MemBound(cores, 2048, 8)
	} else {
		spec, err = workloads.Matrix(cores, 16, 8, 64)
	}
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

func benchPlatform(b *testing.B, spec *workloads.Spec, cores int) *emu.Platform {
	b.Helper()
	p := emu.MustNew(emu.DefaultConfig(cores))
	if err := p.LoadWorkload(spec); err != nil {
		b.Fatal(err)
	}
	return p
}

func benchKernel(b *testing.B, stall bool, cores int) {
	spec := benchSpec(b, stall, cores)
	var cycles, instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchPlatform(b, spec, cores)
		b.StartTimer()
		cyc, done := p.Run(benchMaxCycles)
		if !done {
			b.Fatalf("workload %s did not finish", spec.Name)
		}
		cycles += cyc
		instrs += p.TotalInstructions()
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(cycles)/secs, "cycles/s")
	b.ReportMetric(float64(cycles)*float64(cores)/secs, "core-cycles/s")
	b.ReportMetric(float64(instrs)/secs, "instr/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
}

func BenchmarkRunSerial(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			benchKernel(b, false, cores)
		})
	}
	for _, cores := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("stall/cores=%d", cores), func(b *testing.B) {
			benchKernel(b, true, cores)
		})
	}
}
