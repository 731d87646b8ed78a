package thermemu

import (
	"fmt"
	"io"
	"strings"
	"time"

	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/fpga"
	"thermemu/internal/golden"
	"thermemu/internal/power"
	"thermemu/internal/thermal"
)

// This file is the experiment harness: one entry point per table and figure
// of the paper's evaluation (see DESIGN.md §4 for the index). cmd/experiments
// drives these from the command line and bench_test.go measures them.

// Table1 renders the paper's Table 1 (component power @130 nm) from the
// power library.
func Table1() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: power for most important components of an MPSoC design (130nm bulk CMOS)")
	fmt.Fprintf(&b, "%-18s %14s %18s %12s\n", "component", "max power", "max density", "area")
	for _, m := range power.Table1() {
		fmt.Fprintf(&b, "%-18s %11.4g W @ %3.0f MHz %8.3g W/mm² %8.3g mm²\n",
			m.Name, m.MaxPowerW, m.RefFreqHz/1e6, m.DensityWmm2, m.AreaMM2())
	}
	return b.String()
}

// Table2 renders the paper's Table 2 (thermal properties) from the thermal
// library defaults.
func Table2() string {
	p := thermal.DefaultProperties()
	var b strings.Builder
	fmt.Fprintln(&b, "Table 2: thermal properties")
	fmt.Fprintf(&b, "silicon thermal conductivity  %.0f·(300/T)^(%.3f) W/mK\n", p.SiK300, p.SiKExp)
	fmt.Fprintf(&b, "silicon specific heat         %.3e J/(m³·K)  (%.3e J/(µm³·K))\n", p.SiCv, p.SiCv*1e-18)
	fmt.Fprintf(&b, "silicon thickness             %.0f µm\n", p.SiThick*1e6)
	fmt.Fprintf(&b, "copper thermal conductivity   %.0f W/mK\n", p.CuK)
	fmt.Fprintf(&b, "copper specific heat          %.3e J/(m³·K)  (%.3e J/(µm³·K))\n", p.CuCv, p.CuCv*1e-18)
	fmt.Fprintf(&b, "copper thickness              %.0f µm\n", p.CuThick*1e6)
	fmt.Fprintf(&b, "package-to-air conductivity   %.0f K/W (low power)\n", p.PkgRes)
	return b.String()
}

// Table3Row is one line of the Table 3 reproduction.
type Table3Row struct {
	Name       string
	Cores      int
	Cycles     uint64
	MPARMWall  time.Duration
	EmuWall    time.Duration
	Speedup    float64
	EmuMHz     float64 // emulated cycles per wall second, in MHz
	MPARMkHz   float64 // baseline simulated cycles per wall second, in kHz
	PaperLabel string  // the corresponding row of the paper's table
}

// String formats the row like the paper's table, plus the measured speed-up
// and the effective simulation frequencies (the paper's framing: MPARM runs
// at ~120 kHz while the emulator runs at multiple MHz).
func (r Table3Row) String() string {
	return fmt.Sprintf("%-28s %12v %12v %7.1fx  emu %7.2f MHz vs sim %8.2f kHz  (paper: %s)",
		r.Name, r.MPARMWall.Round(time.Microsecond), r.EmuWall.Round(time.Microsecond),
		r.Speedup, r.EmuMHz, r.MPARMkHz, r.PaperLabel)
}

// Table3Options scales the Table 3 workloads. The defaults keep the full
// table under a couple of minutes of wall time; the paper's original sizes
// (e.g. 128×128 dithering images, 100 K Matrix-TM iterations) can be
// requested explicitly.
type Table3Options struct {
	MatrixN     int  // matrix dimension (default 12)
	MatrixIters int  // multiplications per core (default 2)
	DitherSize  int  // image edge (default 32; paper uses 128)
	TMIters     int  // Matrix-TM iterations (default 8)
	SkipTM      bool // omit the Matrix-TM row (it is the slowest)
}

// The Matrix-TM row samples every 1 ms of virtual time, which keeps it
// tractable on the signal-level kernel, and compresses the thermal axis
// 200× so the short run still heats up and throttles.
const (
	table3TMWindowPs  = 1_000_000_000
	table3TMTimeScale = 200
)

func (o *Table3Options) fill() {
	if o.MatrixN == 0 {
		o.MatrixN = 12
	}
	if o.MatrixIters == 0 {
		o.MatrixIters = 2
	}
	if o.DitherSize == 0 {
		o.DitherSize = 32
	}
	if o.TMIters == 0 {
		o.TMIters = 8
	}
}

// Table3 reproduces the paper's Table 3: the same six workload/platform
// configurations run on both the fast emulation kernel and the signal-level
// MPARM-class baseline, reporting wall times and speed-ups. Absolute times
// depend on the machine; the shape to compare against the paper is that the
// speed-up grows with core count and component count, and is largest for the
// thermal-management run.
func Table3(opts Table3Options) ([]Table3Row, error) {
	opts.fill()
	var rows []Table3Row

	matrix := func(cores int, label string) error {
		spec, err := Matrix(cores, opts.MatrixN, opts.MatrixIters)
		if err != nil {
			return err
		}
		cfg := DefaultPlatform(cores)
		cfg.CoreKinds = emu.Table3Cores(cores) // 1 PPC405 hard-core + Microblazes
		return appendRow(&rows, cfg, spec,
			fmt.Sprintf("Matrix (%d core)", cores), cores, label)
	}
	if err := matrix(1, "106 s vs 1.2 s (88x)"); err != nil {
		return nil, err
	}
	if err := matrix(4, "5'23\" vs 1.2 s (269x)"); err != nil {
		return nil, err
	}
	if err := matrix(8, "13'17\" vs 1.2 s (664x)"); err != nil {
		return nil, err
	}

	dspec, err := Dithering(4, opts.DitherSize)
	if err != nil {
		return nil, err
	}
	dbus := DefaultPlatform(4)
	dbus.CoreKinds = emu.Table3Cores(4)
	if err := appendRow(&rows, dbus, dspec,
		"Dithering (4 cores-bus)", 4, "2'35\" vs 0.18 s (861x)"); err != nil {
		return nil, err
	}
	dnoc := NoCPlatform(4)
	dnoc.CoreKinds = emu.Table3Cores(4)
	if err := appendRow(&rows, dnoc, dspec,
		"Dithering (4 cores-NoC)", 4, "3'15\" vs 0.17 s (1147x)"); err != nil {
		return nil, err
	}

	if !opts.SkipTM {
		row, err := matrixTMRow(opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func appendRow(rows *[]Table3Row, cfg PlatformConfig, spec *Workload, name string, cores int, label string) error {
	slow, err := RunWorkloadMPARM(cfg, spec)
	if err != nil {
		return fmt.Errorf("%s (baseline): %w", name, err)
	}
	fast, err := RunWorkload(cfg, spec)
	if err != nil {
		return fmt.Errorf("%s (emulator): %w", name, err)
	}
	if fast.Cycles != slow.Cycles {
		return fmt.Errorf("%s: kernels disagree on cycles (%d vs %d)", name, fast.Cycles, slow.Cycles)
	}
	*rows = append(*rows, newTable3Row(name, cores, label, slow, fast))
	return nil
}

func newTable3Row(name string, cores int, label string, slow, fast RunStats) Table3Row {
	return Table3Row{
		Name: name, Cores: cores, Cycles: fast.Cycles,
		MPARMWall: slow.Wall, EmuWall: fast.Wall,
		Speedup:    slow.Wall.Seconds() / fast.Wall.Seconds(),
		EmuMHz:     float64(fast.Cycles) / fast.Wall.Seconds() / 1e6,
		MPARMkHz:   float64(slow.Cycles) / slow.Wall.Seconds() / 1e3,
		PaperLabel: label,
	}
}

// matrixTMRow runs the Matrix-TM workload with the full thermal loop on
// both kernels: core.Run for the framework, and core.RunMPARM — the same
// window loop around the signal-level kernel — for the baseline (MPARM with
// its SW thermal library, the paper's 2-day configuration). Each side gets
// its own config, so neither sees the other's thermal state, and both
// walls are the loop's own Result.Wall, set-up excluded. The row fails
// unless both sides emulate the same cycles and golden digest.
func matrixTMRow(opts Table3Options) (Table3Row, error) {
	const name = "Matrix-TM (4 cores-NoC)"
	side := func(run func(core.Config, func(Sample)) (*core.Result, error)) (*core.Result, string, error) {
		cfg, err := core.Fig6Config(opts.TMIters, true)
		if err != nil {
			return nil, "", err
		}
		cfg.WindowPs = table3TMWindowPs
		cfg.ThermalTimeScale = table3TMTimeScale
		cfg.Golden = golden.New()
		res, err := run(cfg, nil)
		if err != nil {
			return nil, "", err
		}
		if !res.Done {
			return nil, "", fmt.Errorf("run incomplete")
		}
		return res, cfg.Golden.Hex(), nil
	}
	slow, slowDigest, err := side(core.RunMPARM)
	if err != nil {
		return Table3Row{}, fmt.Errorf("%s (baseline): %w", name, err)
	}
	fast, fastDigest, err := side(core.Run)
	if err != nil {
		return Table3Row{}, fmt.Errorf("%s (emulator): %w", name, err)
	}
	if fast.Cycles != slow.Cycles {
		return Table3Row{}, fmt.Errorf("%s: kernels disagree on cycles (%d vs %d)", name, fast.Cycles, slow.Cycles)
	}
	if fastDigest != slowDigest {
		return Table3Row{}, fmt.Errorf("%s: kernels disagree on the golden digest (%s vs %s)", name, fastDigest, slowDigest)
	}
	return newTable3Row(name, 4, "2 days vs 5'02\" (1612x)",
		RunStats{Cycles: slow.Cycles, Wall: slow.Wall},
		RunStats{Cycles: fast.Cycles, Wall: fast.Wall}), nil
}

// Fig6Options scales the Figure 6 reproduction.
type Fig6Options struct {
	Iters     int     // Matrix-TM iterations (paper: 100000)
	TimeScale float64 // thermal time compression (1 = paper-faithful)
	// PipelineDepth overlaps emulation with the thermal solve; DFS actions
	// land this many windows later than at depth 0 (0 = synchronous solve).
	PipelineDepth int
}

// fig6WindowPs is the Figure 6 sampling window: 0.5 ms of virtual time per
// sample (the paper samples every 10 ms).
const fig6WindowPs = 500_000_000

func (o *Fig6Options) fill() {
	if o.Iters == 0 {
		o.Iters = 400
	}
	if o.TimeScale == 0 {
		o.TimeScale = 240
	}
}

// Fig6Data is the Figure 6 reproduction: the temperature evolution of the
// Matrix-TM workload at 500 MHz, without and with the threshold-DFS policy.
type Fig6Data struct {
	NoTM   []Sample
	WithTM []Sample
	// Summary numbers for EXPERIMENTS.md.
	MaxNoTM    float64
	MaxWithTM  float64
	DFSEvents  int
	ThrottledN int
}

// Fig6Series runs the two Figure 6 experiments.
func Fig6Series(opts Fig6Options) (*Fig6Data, error) {
	opts.fill()
	build := func(withTM bool) (core.Config, error) {
		cfg, err := core.Fig6Config(opts.Iters, withTM)
		if err != nil {
			return cfg, err
		}
		cfg.WindowPs = fig6WindowPs
		cfg.ThermalTimeScale = opts.TimeScale
		cfg.PipelineDepth = opts.PipelineDepth
		return cfg, nil
	}
	out := &Fig6Data{}
	cfg, err := build(false)
	if err != nil {
		return nil, err
	}
	noTM, err := core.Run(cfg, nil)
	if err != nil {
		return nil, err
	}
	out.NoTM = noTM.Samples
	out.MaxNoTM = noTM.MaxTempK

	cfg, err = build(true)
	if err != nil {
		return nil, err
	}
	withTM, err := core.Run(cfg, nil)
	if err != nil {
		return nil, err
	}
	out.WithTM = withTM.Samples
	out.MaxWithTM = withTM.MaxTempK
	out.DFSEvents = withTM.DFSEvents
	for _, s := range withTM.Samples {
		if s.Throttled {
			out.ThrottledN++
		}
	}
	return out, nil
}

// WriteCSV streams the Figure 6 series as CSV: virtual time, max
// temperature and frequency for both runs (the two curves of the figure).
func (d *Fig6Data) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "series,time_s,max_temp_k,freq_mhz,throttled"); err != nil {
		return err
	}
	emit := func(name string, ss []Sample) error {
		for _, s := range ss {
			throttled := 0
			if s.Throttled {
				throttled = 1
			}
			if _, err := fmt.Fprintf(w, "%s,%.6f,%.3f,%.0f,%d\n",
				name, float64(s.TimePs)*1e-12, s.MaxTempK, float64(s.FreqHz)/1e6, throttled); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("no-tm", d.NoTM); err != nil {
		return err
	}
	return emit("with-tm", d.WithTM)
}

// Resources reproduces the in-text FPGA utilisation figures: the Table 3
// bus design (66%), its NoC variant (80%) and the six-switch system (70%),
// plus the per-block costs.
func Resources() (string, error) {
	var b strings.Builder
	dev := fpga.V2VP30()
	fmt.Fprintf(&b, "per-block slice costs on the %s (13,696 slices):\n", dev.Name)
	for _, k := range []fpga.BlockKind{fpga.Microblaze, fpga.MemController, fpga.PrivateMem,
		fpga.CustomBus, fpga.SnifferEvent, fpga.SnifferCount, fpga.NoCSwitch} {
		c := fpga.SliceCost(k)
		fmt.Fprintf(&b, "  %-16s %5d slices (%.2f%%)\n", k, c, 100*float64(c)/float64(dev.Slices))
	}
	for _, d := range []struct {
		design fpga.Design
		paper  string
	}{
		{fpga.BusDesign(1, 3, 10, 4), "paper: 66%"},
		{fpga.NoCDesign(1, 3, 2, 10, 4), "paper: 80%"},
		{fpga.NoCDesign(0, 2, 6, 8, 2), "paper: 70%"},
	} {
		rep, err := fpga.Estimate(d.design, dev)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n%s   [%s]\n", rep, d.paper)
	}
	return b.String(), nil
}

// SolverPerfResult reports the thermal-solver throughput experiment (the
// paper analyses 2 s of simulation on a 660-cell floorplan in 1.65 s on a
// 3 GHz Pentium 4).
type SolverPerfResult struct {
	Cells     int // RC nodes in the model
	SimS      float64
	Wall      time.Duration
	RealTimeX float64 // simulated seconds per wall second
}

// String formats the result next to the paper's reference point.
func (r SolverPerfResult) String() string {
	return fmt.Sprintf("thermal solver: %.1f s simulated on %d cells in %v (%.1fx real time; paper: 2 s in 1.65 s)",
		r.SimS, r.Cells, r.Wall.Round(time.Millisecond), r.RealTimeX)
}

// SolverPerf measures the RC solver on a floorplan gridded to surfaceCells
// bottom cells, stepping simS simulated seconds in 10 ms windows under a
// representative ARM11 load.
func SolverPerf(surfaceCells int, simS float64) (SolverPerfResult, error) {
	host, err := NewThermalHost(FourARM11(), surfaceCells)
	if err != nil {
		return SolverPerfResult{}, err
	}
	powers := make([]float64, host.NumComponents())
	for i, c := range host.FP.Components {
		powers[i] = c.Model.Power(0.6, 500e6)
	}
	start := time.Now()
	for t := 0.0; t < simS; t += 0.01 {
		if _, err := host.StepWindow(powers, 0.01); err != nil {
			return SolverPerfResult{}, err
		}
	}
	wall := time.Since(start)
	return SolverPerfResult{
		Cells: host.Model.NumCells(), SimS: simS, Wall: wall,
		RealTimeX: simS / wall.Seconds(),
	}, nil
}

// SteadyHotspotResult reports the steady-state hotspot experiment.
type SteadyHotspotResult struct {
	Cells     int
	Sweeps    int
	MaxTempK  float64
	Converged bool
}

// String formats the result, flagging a best-effort (non-converged) answer.
func (r SteadyHotspotResult) String() string {
	status := "converged"
	if !r.Converged {
		status = "NOT converged (best effort)"
	}
	return fmt.Sprintf("steady-state hotspot: %.2f K on %d cells after %d sweeps (%s)",
		r.MaxTempK, r.Cells, r.Sweeps, status)
}

// SteadyHotspot relaxes the FourARM11 floorplan under its full-utilisation
// power vector to thermal equilibrium and reports the hotspot. When the
// sweep budget is exhausted the error wraps ErrNoConvergence and the result
// still carries the best-effort temperatures, so callers (cmd/experiments)
// can branch with errors.Is instead of parsing the message.
func SteadyHotspot(surfaceCells int, tol float64, maxSweeps int) (SteadyHotspotResult, error) {
	host, err := NewThermalHost(FourARM11(), surfaceCells)
	if err != nil {
		return SteadyHotspotResult{}, err
	}
	powers := make([]float64, host.NumComponents())
	for i, c := range host.FP.Components {
		powers[i] = c.Model.Power(0.6, 500e6)
	}
	sweeps, temps, err := host.SteadyState(powers, tol, maxSweeps)
	res := SteadyHotspotResult{
		Cells:     host.Model.NumCells(),
		Sweeps:    sweeps,
		Converged: err == nil,
	}
	for _, t := range temps {
		if t > res.MaxTempK {
			res.MaxTempK = t
		}
	}
	return res, err
}
