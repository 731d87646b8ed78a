package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweepRows renders plain `go test -bench` lines for the canonical sweep
// rows at each maxprocs, with Workers4 at the given windows/s.
func sweepRows(w4 map[int]float64) string {
	var b strings.Builder
	for procs, rate := range w4 {
		suffix := ""
		if procs > 1 {
			suffix = fmt.Sprintf("-%d", procs)
		}
		row := func(name string, windows float64) {
			fmt.Fprintf(&b, "%s%s \t 5\t 50000000 ns/op\t %d.000 maxprocs\t %.0f windows/s\n",
				name, suffix, procs, windows)
		}
		row("BenchmarkSweepWorkers1", 500)
		row("BenchmarkSweepWorkers4", rate)
		row("BenchmarkSweepWorkers8", rate)
		fmt.Fprintf(&b, "BenchmarkSweepWarmupCold%s \t 5\t 60000000 ns/op\t %d.000 maxprocs\n", suffix, procs)
		fmt.Fprintf(&b, "BenchmarkSweepWarmupShared%s \t 5\t 40000000 ns/op\t %d.000 maxprocs\n", suffix, procs)
	}
	return b.String()
}

func TestGateSweepHostScaling(t *testing.T) {
	cases := []struct {
		name string
		w4   map[int]float64
		want int
	}{
		{"one cpu only", map[int]float64{1: 1000}, 0},
		{"second cpu helps", map[int]float64{1: 1000, 2: 1600}, 0},
		{"second cpu does not help", map[int]float64{1: 1000, 2: 1000}, 1},
		{"no one-cpu reference", map[int]float64{2: 1600}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
			if err := os.WriteFile(path, []byte(sweepRows(tc.w4)), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := gateSweep(path, path, 0.8); got != tc.want {
				t.Errorf("gateSweep = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestGateSweepKeysRowsByMaxprocs(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	fresh := filepath.Join(dir, "fresh.json")
	if err := os.WriteFile(base, []byte(sweepRows(map[int]float64{1: 1000, 2: 1600})), 0o644); err != nil {
		t.Fatal(err)
	}
	// The one-CPU rows alone must not satisfy the two-CPU baseline rows.
	if err := os.WriteFile(fresh, []byte(sweepRows(map[int]float64{1: 1000})), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := gateSweep(fresh, base, 0.8); got != 1 {
		t.Errorf("gateSweep with the maxprocs-2 rows missing = %d, want 1", got)
	}
}

// TestGateSweepParsesBenchmemColumns: rows recorded with -benchmem carry
// B/op and allocs/op between the other metrics, and the sweep gate must
// still read windows/s, ns/op and maxprocs from them.
func TestGateSweepParsesBenchmemColumns(t *testing.T) {
	rows := strings.ReplaceAll(sweepRows(map[int]float64{1: 1000, 2: 1600}),
		" ns/op\t", " ns/op\t 5931234 B/op\t   21345 allocs/op\t")
	if !strings.Contains(rows, "allocs/op") {
		t.Fatal("fixture has no benchmem columns")
	}
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := parse(path, sweepResultLine, true)
	if err != nil {
		t.Fatal(err)
	}
	w4 := res[procsKey("BenchmarkSweepWorkers4", 2)]
	if w4.windowsPerS != 1600 || w4.nsPerOp != 50000000 || w4.maxprocs != 2 {
		t.Errorf("Workers4 at 2 cpus parsed as %+v", w4)
	}
	if got := gateSweep(path, path, 0.8); got != 0 {
		t.Errorf("gateSweep on benchmem rows = %d, want 0", got)
	}
}
