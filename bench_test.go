package thermemu

// Benchmarks regenerating the performance side of every table and figure in
// the paper's evaluation, plus ablations of the design choices called out
// in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Workload sizes are scaled down so one bench sweep stays in minutes; the
// cmd/experiments binary runs the full-size configurations.

import (
	"fmt"
	"io"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/bus"
	"thermemu/internal/core"
	"thermemu/internal/cpu"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/mem"
	"thermemu/internal/mparm"
	"thermemu/internal/thermal"
	"thermemu/internal/workloads"
)

// --- Table 1: the activity-based power evaluation hot path -----------------

func BenchmarkTable1PowerEval(b *testing.B) {
	fp := floorplan.FourARM11()
	ev := core.NewPowerEvaluator(fp)
	prev := emu.Snapshot{Cycle: 0, FreqHz: 500e6}
	cur := emu.Snapshot{Cycle: 1_000_000, FreqHz: 500e6}
	for i := 0; i < 4; i++ {
		prev.Cores = append(prev.Cores, cpu.Stats{})
		cur.Cores = append(cur.Cores, cpu.Stats{ActiveCycles: 600_000, IdleCycles: 400_000})
		prev.ICaches = append(prev.ICaches, mem.CacheStats{})
		cur.ICaches = append(cur.ICaches, mem.CacheStats{Reads: 700_000})
		prev.DCaches = append(prev.DCaches, mem.CacheStats{})
		cur.DCaches = append(cur.DCaches, mem.CacheStats{Reads: 200_000, Writes: 90_000})
		prev.Ctrls = append(prev.Ctrls, mem.CtrlStats{})
		cur.Ctrls = append(cur.Ctrls, mem.CtrlStats{PrivateReads: 250_000, SharedReads: 20_000})
	}
	out := make([]float64, len(fp.Components))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Powers(prev, cur, out); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: emulator vs MPARM-class baseline per row ---------------------

func benchWorkload(b *testing.B, cfg PlatformConfig, spec *Workload, baseline bool) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		var rs RunStats
		var err error
		if baseline {
			rs, err = RunWorkloadMPARM(cfg, spec)
		} else {
			rs, err = RunWorkload(cfg, spec)
		}
		if err != nil {
			b.Fatal(err)
		}
		cycles = rs.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
}

func BenchmarkTable3(b *testing.B) {
	matrix := func(cores int) *Workload {
		spec, err := Matrix(cores, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		return spec
	}
	dither := func() *Workload {
		spec, err := Dithering(4, 16)
		if err != nil {
			b.Fatal(err)
		}
		return spec
	}
	b.Run("Matrix1Core/Emulator", func(b *testing.B) { benchWorkload(b, DefaultPlatform(1), matrix(1), false) })
	b.Run("Matrix1Core/MPARM", func(b *testing.B) { benchWorkload(b, DefaultPlatform(1), matrix(1), true) })
	b.Run("Matrix4Cores/Emulator", func(b *testing.B) { benchWorkload(b, DefaultPlatform(4), matrix(4), false) })
	b.Run("Matrix4Cores/MPARM", func(b *testing.B) { benchWorkload(b, DefaultPlatform(4), matrix(4), true) })
	b.Run("Matrix8Cores/Emulator", func(b *testing.B) { benchWorkload(b, DefaultPlatform(8), matrix(8), false) })
	b.Run("Matrix8Cores/MPARM", func(b *testing.B) { benchWorkload(b, DefaultPlatform(8), matrix(8), true) })
	b.Run("Dithering4CoresBus/Emulator", func(b *testing.B) { benchWorkload(b, DefaultPlatform(4), dither(), false) })
	b.Run("Dithering4CoresBus/MPARM", func(b *testing.B) { benchWorkload(b, DefaultPlatform(4), dither(), true) })
	b.Run("Dithering4CoresNoC/Emulator", func(b *testing.B) { benchWorkload(b, NoCPlatform(4), dither(), false) })
	b.Run("Dithering4CoresNoC/MPARM", func(b *testing.B) { benchWorkload(b, NoCPlatform(4), dither(), true) })
}

// BenchmarkTable3MatrixTM measures the full closed thermal loop (the
// Matrix-TM row) on both kernels.
func BenchmarkTable3MatrixTM(b *testing.B) {
	build := func() CoEmulationConfig {
		cfg, err := core.Fig6Config(3, true)
		if err != nil {
			b.Fatal(err)
		}
		cfg.WindowPs = 500_000_000
		cfg.ThermalTimeScale = 200
		return cfg
	}
	b.Run("Emulator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(build(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MPARM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunMPARM(build(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 6: closed-loop sampling window cost ----------------------------

func BenchmarkFig6Window(b *testing.B) {
	cfg, err := core.Fig6Config(1_000_000_000, true) // effectively endless
	if err != nil {
		b.Fatal(err)
	}
	cfg.WindowPs = 100_000_000
	cfg.MaxCycles = uint64(b.N+1) * 50_000 // one 0.1 ms window per iteration at 500 MHz
	b.ResetTimer()
	if _, err := core.Run(cfg, nil); err != nil {
		b.Fatal(err)
	}
}

// --- In-text: thermal solver speed (2 s on a 660-cell floorplan) -----------

func benchSolver(b *testing.B, cells int) {
	host, err := NewThermalHost(FourARM11(), cells)
	if err != nil {
		b.Fatal(err)
	}
	pw := make([]float64, host.NumComponents())
	for i, c := range host.FP.Components {
		pw[i] = c.Model.Power(0.6, 500e6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := host.StepWindow(pw, 0.01); err != nil { // one 10 ms step
			b.Fatal(err)
		}
	}
	simSeconds := float64(b.N) * 0.01
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "sim_s/wall_s")
}

func BenchmarkThermal660Cells(b *testing.B) { benchSolver(b, 660) }

func BenchmarkThermal28Cells(b *testing.B) { benchSolver(b, 28) }

// BenchmarkThermalScaling sweeps grid size x worker count over the sharded
// solver, on square uniform dies rather than the ARM11 floorplan so the cell
// counts land exactly on powers of two. MinParallelCells is forced to 1 so
// every {cells}x{workers} case exercises the path it names; real speedup
// requires as many free host CPUs as workers.
func BenchmarkThermalScaling(b *testing.B) {
	const die = 10e-3
	for _, n := range []int{16, 32, 64} { // 256, 1024, 4096 silicon cells
		si := thermal.UniformGrid(die, die, n, n)
		cu := thermal.UniformGrid(die, die, n/2, n/2)
		for _, workers := range []int{1, 2, 4} {
			opt := thermal.DefaultOptions()
			opt.Workers = workers
			opt.MinParallelCells = 1
			b.Run(fmt.Sprintf("%dx%d", n*n, workers), func(b *testing.B) {
				m, err := thermal.NewModel(si, cu, opt)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < m.NumSurfaceCells(); i++ {
					m.SetPower(i, 2.0/float64(n*n)) // 2 W spread uniformly
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step(0.002) // one 2 ms window
				}
				simSeconds := float64(b.N) * 0.002
				b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "sim_s/wall_s")
			})
		}
	}
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

// BenchmarkKernelAblation isolates the per-cycle cost of the two kernels on
// an identical spinning platform: the direct-dispatch emulation kernel vs
// the signal-level evaluate/update kernel.
func BenchmarkKernelAblation(b *testing.B) {
	spec, err := Matrix(4, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	prep := func() *emu.Platform {
		p := emu.MustNew(emu.DefaultConfig(4))
		if err := p.LoadWorkload(spec); err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("DirectDispatch", func(b *testing.B) {
		p := prep()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.StepOne()
		}
	})
	b.Run("SignalLevel", func(b *testing.B) {
		k := mparm.New(prep())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.StepOne()
		}
	})
}

// BenchmarkSnifferAblation compares emulation with count-logging only (free)
// against exhaustive event-logging into the BRAM ring (the configuration
// that can congest the Ethernet link).
func BenchmarkSnifferAblation(b *testing.B) {
	run := func(b *testing.B, logging bool) {
		cfg := emu.DefaultConfig(4)
		cfg.EventLogging = logging
		cfg.EventBufCap = 1 << 16
		p := emu.MustNew(cfg)
		p.OnBufferFull = func() bool {
			for p.Ring.Len() > 0 {
				p.Ring.Pop()
			}
			return true
		}
		spec, err := Matrix(4, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		for i, im := range spec.Programs {
			if err := p.LoadProgram(i, im); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.StepOne()
		}
	}
	b.Run("CountLogging", func(b *testing.B) { run(b, false) })
	b.Run("EventLogging", func(b *testing.B) { run(b, true) })
}

// BenchmarkThermalNonlinearAblation compares the paper's non-linear silicon
// conductivity against a constant-k model.
func BenchmarkThermalNonlinearAblation(b *testing.B) {
	run := func(b *testing.B, exp float64) {
		fp := floorplan.FourARM11()
		opt := thermal.DefaultOptions()
		opt.Props.SiKExp = exp
		host, err := core.NewThermalHost(fp, 128, opt)
		if err != nil {
			b.Fatal(err)
		}
		pw := make([]float64, host.NumComponents())
		for i, c := range fp.Components {
			pw[i] = c.Model.Power(0.6, 500e6)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := host.StepWindow(pw, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("NonlinearK", func(b *testing.B) { run(b, 4.0/3.0) })
	b.Run("ConstantK", func(b *testing.B) { run(b, 0) })
}

// BenchmarkGridAblation compares a uniform grid against the multi-resolution
// grid of Figure 3(a) at equal cell count.
func BenchmarkGridAblation(b *testing.B) {
	fp := floorplan.FourARM11()
	run := func(b *testing.B, si []thermal.Rect) {
		cu := thermal.UniformGrid(fp.DieW, fp.DieH, 3, 3)
		m, err := thermal.NewModel(si, cu, thermal.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		pm := floorplan.NewPowerMap(fp, si)
		pw := make([]float64, len(fp.Components))
		for i, c := range fp.Components {
			pw[i] = c.Model.Power(0.6, 500e6)
		}
		cell := pm.CellPowers(pw, nil)
		if err := m.SetPowers(cell); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step(0.01)
		}
	}
	b.Run("Uniform8x8", func(b *testing.B) { run(b, fp.Grid(8, 8)) })
	b.Run("MultiRes64", func(b *testing.B) { run(b, fp.GridTargetCells(64)) })
}

// BenchmarkEtherlinkFrame measures the MAC frame codec round trip for a
// 28-cell statistics payload.
func BenchmarkEtherlinkFrame(b *testing.B) {
	s := &etherlink.Stats{Cycle: 12345, WindowPs: 10_000_000_000, PowerUW: make([]uint32, 28)}
	for i := range s.PowerUW {
		s.PowerUW[i] = uint32(i) * 1000
	}
	f := &etherlink.Frame{Dst: etherlink.HostMAC, Src: etherlink.DeviceMAC,
		Type: etherlink.MsgStats, Payload: s.MarshalPayload()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := f.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		g, err := etherlink.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := etherlink.UnmarshalStats(g.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEtherlinkLoopback measures a full stats->temps exchange over the
// in-process transport.
func BenchmarkEtherlinkLoopback(b *testing.B) {
	dev, hostTr := etherlink.LoopbackPair(8)
	host, err := NewThermalHost(FourARM11(), 28)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- host.Serve(hostTr) }()
	d := etherlink.NewDispatcher(dev, nil, 0)
	s := &etherlink.Stats{Cycle: 1, WindowPs: 1_000_000, PowerUW: make([]uint32, host.NumComponents())}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SendStats(s); err != nil {
			b.Fatal(err)
		}
		if _, err := d.RecvTemps(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := d.SendCtrl(etherlink.CtrlStop, 0); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil && err != io.EOF {
		b.Fatal(err)
	}
}

// --- Microbenchmarks of the substrates --------------------------------------

func BenchmarkCPUStep(b *testing.B) {
	spec, err := workloads.Matrix(1, 16, 1_000_000, 64)
	if err != nil {
		b.Fatal(err)
	}
	p := emu.MustNew(emu.DefaultConfig(1))
	if err := p.LoadProgram(0, spec.Programs[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.StepOne()
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := mem.NewCache(mem.CacheConfig{Name: "b", SizeBytes: 8192, LineBytes: 16, Assoc: 2, HitLatency: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint32(i*64) % 65536
		if hit, _ := c.Access(addr, i%4 == 0); !hit {
			c.Refill(addr, false)
		}
	}
}

func BenchmarkBusTransaction(b *testing.B) {
	bus := emu.MustNew(emu.DefaultConfig(4)).Bus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Transaction(i%4, uint64(i), 16, i%2 == 0, 6)
	}
}

func BenchmarkNoCTransaction(b *testing.B) {
	cfg := emu.DefaultConfig(4)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Fig6NoC(4)
	p := emu.MustNew(cfg)
	port := p.Net.TargetPort(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.Transaction(i%4, uint64(i), 16, i%2 == 0, 6)
	}
}

// BenchmarkArbitrationAblation compares the bus arbitration policies under
// four contending masters.
func BenchmarkArbitrationAblation(b *testing.B) {
	run := func(b *testing.B, arb bus.Arbitration) {
		cfg := bus.Custom(4, arb, 32)
		bs := bus.MustNew(cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.Transaction(i%4, uint64(i), 16, i%2 == 0, 6)
		}
	}
	b.Run("RoundRobin", func(b *testing.B) { run(b, bus.RoundRobin) })
	b.Run("FixedPriority", func(b *testing.B) { run(b, bus.FixedPriority) })
	b.Run("TDMA", func(b *testing.B) { run(b, bus.TDMA) })
}

// BenchmarkL2Ablation measures the platform cycle rate of a shared-traffic
// loop with and without a per-core L2.
func BenchmarkL2Ablation(b *testing.B) {
	prog := asm.MustAssemble(`
		li   r1, 0x10000000
	loop:
		lw   r2, 0(r1)
		lw   r3, 4(r1)
		sw   r2, 8(r1)
		b    loop
	`)
	run := func(b *testing.B, withL2 bool) {
		cfg := emu.DefaultConfig(2)
		if withL2 {
			cfg.L2 = &mem.CacheConfig{Name: "l2", SizeBytes: 8192, LineBytes: 32, Assoc: 2, HitLatency: 2}
		}
		p := emu.MustNew(cfg)
		for i := 0; i < 2; i++ {
			if err := p.LoadProgram(i, prog); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.StepOne()
		}
		b.ReportMetric(float64(p.TotalInstructions())/float64(b.N), "instr/cycle")
	}
	b.Run("NoL2", func(b *testing.B) { run(b, false) })
	b.Run("WithL2", func(b *testing.B) { run(b, true) })
}

// BenchmarkDualIssueAblation compares single- and dual-issue cores on the
// matrix kernel.
func BenchmarkDualIssueAblation(b *testing.B) {
	spec, err := workloads.Matrix(1, 12, 1_000_000, 64)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, kind cpu.Kind) {
		cfg := emu.DefaultConfig(1)
		cfg.CoreKind = kind
		p := emu.MustNew(cfg)
		if err := p.LoadProgram(0, spec.Programs[0]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.StepOne()
		}
		b.ReportMetric(float64(p.TotalInstructions())/float64(b.N), "instr/cycle")
	}
	b.Run("SingleIssue", func(b *testing.B) { run(b, cpu.Microblaze) })
	b.Run("DualIssueVLIW", func(b *testing.B) { run(b, cpu.VLIW2) })
}
