// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	experiments -table1              Table 1  (component power models)
//	experiments -table2              Table 2  (thermal properties)
//	experiments -table3              Table 3  (emulator vs MPARM timing)
//	experiments -fig6 -out fig6.csv  Figure 6 (Matrix-TM thermal evolution)
//	experiments -resources           in-text FPGA utilisation figures
//	experiments -solver              in-text thermal-solver speed (660 cells)
//	experiments -steady              steady-state hotspot on 660 cells
//	experiments -all                 everything
//
// Workload sizes are scaled so the whole suite runs in minutes; the paper's
// original sizes can be requested with the scaling flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"thermemu"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every experiment")
		table1    = flag.Bool("table1", false, "print Table 1")
		table2    = flag.Bool("table2", false, "print Table 2")
		table3    = flag.Bool("table3", false, "run the Table 3 comparison")
		fig6      = flag.Bool("fig6", false, "run the Figure 6 thermal experiment")
		resources = flag.Bool("resources", false, "print the FPGA utilisation figures")
		solver    = flag.Bool("solver", false, "measure thermal-solver speed on 660 cells")
		steady    = flag.Bool("steady", false, "relax the 660-cell floorplan to steady state")

		matrixN     = flag.Int("matrix-n", 0, "Table 3 matrix dimension (0 = default)")
		matrixIters = flag.Int("matrix-iters", 0, "Table 3 matrix iterations per core")
		ditherSize  = flag.Int("dither-size", 0, "Table 3 dithering image edge (paper: 128)")
		tmIters     = flag.Int("tm-iters", 0, "Table 3 Matrix-TM iterations")
		skipTM      = flag.Bool("skip-tm", false, "omit the Matrix-TM row")

		fig6Iters = flag.Int("fig6-iters", 0, "Figure 6 Matrix-TM iterations")
		fig6Scale = flag.Float64("fig6-timescale", 0, "Figure 6 thermal time compression (1 = paper-faithful)")
		fig6Pipe  = flag.Int("fig6-pipeline", 0, "Figure 6 pipeline depth (DFS sensor latency in windows; 0 = synchronous solve)")
		out       = flag.String("out", "fig6.csv", "Figure 6 CSV output path")

		solverSimS    = flag.Float64("solver-sim", 2.0, "seconds of thermal simulation to run")
		solverWorkers = flag.Int("solver-workers", 0, "thermal solver shards (0 = auto, 1 = serial)")
		steadyTol     = flag.Float64("steady-tol", 1e-6, "steady-state convergence tolerance, K")
		steadySweeps  = flag.Int("steady-sweeps", 20000, "steady-state sweep budget")
	)
	flag.Parse()

	if !(*all || *table1 || *table2 || *table3 || *fig6 || *resources || *solver || *steady) {
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *all || *table1 {
		fmt.Println(thermemu.Table1())
	}
	if *all || *table2 {
		fmt.Println(thermemu.Table2())
	}
	if *all || *resources {
		s, err := thermemu.Resources()
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
		fmt.Println()
	}
	if *all || *solver {
		r, err := thermemu.SolverPerf(660, *solverSimS, *solverWorkers)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
		fmt.Println()
	}
	if *all || *steady {
		r, err := thermemu.SteadyHotspot(660, *steadyTol, *steadySweeps)
		if err != nil && !errors.Is(err, thermemu.ErrNoConvergence) {
			fail(err)
		}
		if errors.Is(err, thermemu.ErrNoConvergence) {
			fmt.Fprintf(os.Stderr, "experiments: warning: %v — printing best-effort result\n", err)
		}
		fmt.Println(r)
		fmt.Println()
	}
	if *all || *table3 {
		fmt.Println("Table 3: timing comparison, MPARM-class baseline vs emulation kernel")
		rows, err := thermemu.Table3(thermemu.Table3Options{
			MatrixN: *matrixN, MatrixIters: *matrixIters, DitherSize: *ditherSize,
			TMIters: *tmIters, SkipTM: *skipTM,
		})
		if err != nil {
			fail(err)
		}
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Println()
	}
	runFig6(all, fig6, fig6Iters, fig6Scale, fig6Pipe, out, fail)
}

func runFig6(all, fig6 *bool, fig6Iters *int, fig6Scale *float64, fig6Pipe *int, out *string, fail func(error)) {
	if *all || *fig6 {
		d, err := thermemu.Fig6Series(thermemu.Fig6Options{
			Iters: *fig6Iters, TimeScale: *fig6Scale, PipelineDepth: *fig6Pipe,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("Figure 6: Matrix-TM at 500 MHz\n")
		fmt.Printf("  without TM: %d samples, max %.2f K\n", len(d.NoTM), d.MaxNoTM)
		fmt.Printf("  with TM:    %d samples, max %.2f K, %d DFS events, %d throttled samples\n",
			len(d.WithTM), d.MaxWithTM, d.DFSEvents, d.ThrottledN)
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := d.WriteCSV(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("  series written to %s\n", *out)
		fmt.Printf("  policy/floorplan variants of this figure run as a grid: " +
			"go run ./cmd/sweep -spec examples/scenarios/noc-grid.sweep -workers 4\n")
	}
}
