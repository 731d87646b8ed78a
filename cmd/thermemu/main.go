// Command thermemu runs the HW/SW co-emulation framework from the command
// line: it emulates an MPSoC running one of the paper's workloads, streams
// per-window power statistics to the SW thermal library (in-process by
// default, or to a remote cmd/thermserver over TCP), applies the selected
// run-time thermal-management policy, and reports the run.
//
// Examples:
//
//	thermemu -cores 4 -workload matrix -n 16 -iters 100
//	thermemu -cores 4 -workload matrix-tm -iters 400 -tm -csv run.csv
//	thermemu -cores 4 -workload dithering -size 64 -ic noc
//	thermemu -scenario examples/scenarios/fir.scn -digest   (declarative run)
//	thermemu -workload matrix-tm -host 127.0.0.1:9077   (remote thermal host)
//	thermemu -workload matrix-tm -iters 400 -digest -checkpoint ck/   (checkpointed)
//	thermemu -workload matrix-tm -iters 400 -digest -resume ck/win-000010.tmck
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"

	"thermemu"
	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/noc"
	"thermemu/internal/scenario"
	"thermemu/internal/tm"
	"thermemu/internal/trace"
	"thermemu/internal/workloads"
)

func main() {
	var (
		scenPath  = flag.String("scenario", "", "run a declarative scenario file instead of the platform/workload flags")
		cores     = flag.Int("cores", 4, "emulated cores (1-8)")
		workload  = flag.String("workload", "matrix", workloads.NamesHelp())
		n         = flag.Int("n", 16, "matrix dimension / FIR taps / histogram bins")
		iters     = flag.Int("iters", 10, "repetition count (sustained-load iterations)")
		size      = flag.Int("size", 64, "dithering image edge")
		words     = flag.Int("words", 64, "stream length (membound, fir, histogram) / pipeline items")
		ic        = flag.String("ic", "opb", "interconnect: opb | plb | custom | noc")
		nocSpec   = flag.String("noc", "pair", "NoC topology when -ic noc: pair | mesh:WxH | ring:N")
		freqMHz   = flag.Int("freq", 0, "virtual clock in MHz (0 = platform default)")
		blocks    = flag.Bool("blocks", false, "threaded-code block dispatch: translate straight-line R32 blocks at first execution (bit-identical results, faster on compute-bound code)")
		withTM    = flag.Bool("tm", false, "enable the 350K/340K threshold DFS policy")
		windowMs  = flag.Float64("window", 1.0, "sampling window in virtual ms")
		pipeline  = flag.Int("pipeline", 0, "pipeline depth: overlap emulation with the thermal solve at a sensor latency of this many windows (0 = serial loop)")
		tscale    = flag.Float64("timescale", 100, "thermal time compression (1 = paper-faithful)")
		cells     = flag.Int("cells", 28, "thermal cells for the floorplan grid")
		workers   = flag.Int("workers", 0, "thermal solver shards (0 = auto, 1 = serial)")
		csvPath   = flag.String("csv", "", "write per-window samples to this CSV file")
		hostAddr  = flag.String("host", "", "remote thermal server address (empty = in-process)")
		fault     = flag.String("fault", "", "inject link faults, e.g. drop=0.01,dup=0.005,reorder=0.01,corrupt=0.001,delay=2ms,cut=500 (applied to both directions)")
		faultSeed = flag.Int64("fault-seed", 1, "PRNG seed for -fault")
		redial    = flag.Bool("redial", false, "supervise the host connection: reconnect with capped exponential backoff on link faults")
		report    = flag.Bool("report", false, "print the detailed platform statistics report")
		digest    = flag.Bool("digest", false, "accumulate and print the run's golden conformance digest")
		ckptDir   = flag.String("checkpoint", "", "write window-boundary checkpoints (win-NNNNNN.tmck) into this directory")
		ckptEvery = flag.Int("checkpoint-every", 10, "checkpoint cadence in sampling windows for -checkpoint")
		resume    = flag.String("resume", "", "resume a run from this checkpoint file (continues its golden digest lineage; flags must match the original run)")
		fork      = flag.String("fork", "", "like -resume but as a new experiment branching off the snapshot (fresh digest lineage)")
		vcdPath   = flag.String("vcd", "", "write the run as a VCD waveform to this path")
		jsonPath  = flag.String("json", "", "write the run's samples as JSON to this path")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		execTrace = flag.String("exectrace", "", "write a runtime execution trace of the run to this path (inspect with go tool trace)")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	)
	flag.Parse()
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if err := profiled(*cpuProf, *memProf, *execTrace, func() error {
		return run(*scenPath, setFlags, *cores, *workload, *n, *iters, *size, *words, *ic, *nocSpec, *freqMHz, *blocks, *withTM,
			*windowMs, *pipeline, *tscale, *cells, *workers, *csvPath, *hostAddr, *fault, *faultSeed,
			*redial, *report, *digest, *ckptDir, *ckptEvery, *resume, *fork, *vcdPath, *jsonPath)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "thermemu:", err)
		os.Exit(1)
	}
}

// scenarioOwned lists the flags a scenario file replaces; setting one of
// them together with -scenario is a conflict, not a silent override.
var scenarioOwned = []string{
	"cores", "workload", "n", "iters", "size", "words", "ic", "noc", "freq",
	"blocks", "tm", "window", "pipeline", "timescale", "cells", "workers",
	"fault", "fault-seed",
}

// profiled runs body under the requested pprof collectors and the runtime
// execution tracer. The CPU profile and the execution trace cover the whole
// run; the heap profile is written after a final GC so it reflects live
// steady-state memory, not garbage.
func profiled(cpuPath, memPath, tracePath string, body func() error) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memPath != "" {
		defer func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "thermemu:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "thermemu:", err)
			}
		}()
	}
	return body()
}

func run(scenPath string, setFlags map[string]bool,
	cores int, workload string, n, iters, size, words int, ic, nocSpec string, freqMHz int,
	blocks, withTM bool, windowMs float64, pipeline int, tscale float64, cells, workers int,
	csvPath, hostAddr, fault string, faultSeed int64, redial, report, digest bool,
	ckptDir string, ckptEvery int, resumePath, forkPath string,
	vcdPath, jsonPath string) error {
	var cfg thermemu.CoEmulationConfig
	if scenPath != "" {
		for _, name := range scenarioOwned {
			if setFlags[name] {
				return fmt.Errorf("-%s conflicts with -scenario: set it in the scenario file", name)
			}
		}
		s, err := scenario.Load(scenPath)
		if err != nil {
			return err
		}
		for _, w := range s.Warnings() {
			fmt.Fprintf(os.Stderr, "thermemu: warning: %s: %s\n", scenPath, w)
		}
		cfg, err = s.CoEmulation()
		if err != nil {
			return err
		}
		// The report lines below describe the run through these locals.
		cores, ic = s.Cores, s.IC
		windowMs, pipeline = s.WindowMs, s.Pipeline
		fault, faultSeed = s.Fault, s.FaultSeed
		if s.Digest {
			digest = true // the scenario pins its own evidence
		}
	} else {
		pcfg := thermemu.DefaultPlatform(cores)
		switch ic {
		case "opb":
			pcfg.IC = emu.ICBusOPB
		case "plb":
			pcfg.IC = emu.ICBusPLB
		case "custom":
			pcfg.IC = emu.ICBusCustom
		case "noc":
			pcfg.IC = emu.ICNoC
			topo, err := noc.ParseTopology(nocSpec)
			if err != nil {
				return err
			}
			for c := 0; c < cores; c++ {
				topo.Attach(c, c%topo.Switches)
			}
			pcfg.NoC = &emu.NoCSpec{Topo: topo, Cfg: noc.DefaultConfig(), MemSwitch: topo.Switches - 1}
		default:
			return fmt.Errorf("unknown interconnect %q", ic)
		}
		if freqMHz > 0 {
			pcfg.FreqHz = uint64(freqMHz) * 1e6
		}
		spec, err := workloads.Build(workload, workloads.Params{
			Cores: cores, PrivKB: pcfg.PrivKB, N: n, Iters: iters, Size: size, Words: words,
		})
		if err != nil {
			return err
		}
		if b, _ := workloads.Lookup(workload); b.ForceFreqMHz > 0 {
			pcfg.FreqHz = uint64(b.ForceFreqMHz) * 1e6 // the workload's pinned operating point
		}
		pcfg.Blocks = blocks

		topt := thermemu.DefaultThermalOptions()
		if workers > 0 {
			topt.Workers = workers
		}
		host, err := thermemu.NewThermalHostWith(thermemu.FourARM11(), cells, topt)
		if err != nil {
			return err
		}
		cfg = thermemu.CoEmulationConfig{
			Platform:         pcfg,
			Workload:         spec,
			Host:             host,
			WindowPs:         uint64(windowMs * 1e9),
			ThermalTimeScale: tscale,
			PipelineDepth:    pipeline,
		}
		if withTM {
			cfg.Policy = tm.NewThresholdDFS()
		}
	}
	spec := cfg.Workload
	if digest {
		cfg.Golden = thermemu.NewGoldenTrace()
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return err
		}
		cfg.CheckpointEvery = ckptEvery
		cfg.CheckpointSink = func(c *thermemu.Checkpoint) error {
			name := fmt.Sprintf("win-%06d.tmck", c.Window)
			if c.Partial {
				name = fmt.Sprintf("win-%06d-partial.tmck", c.Window)
			}
			return c.WriteFile(filepath.Join(ckptDir, name))
		}
	}
	if resumePath != "" && forkPath != "" {
		return fmt.Errorf("-resume and -fork are mutually exclusive")
	}
	if path := resumePath + forkPath; path != "" {
		c, err := thermemu.ReadCheckpoint(path)
		if err != nil {
			return err
		}
		cfg.Resume = c
		cfg.Fork = forkPath != ""
		fmt.Printf("resuming:       %s (window %d, cycle %d, partial=%v)\n",
			path, c.Window, c.Platform.Clock.Cycle, c.Partial)
	}
	if hostAddr != "" {
		fcfg, err := etherlink.ParseFaultSpec(fault)
		if err != nil {
			return err
		}
		wrap := func(tr thermemu.Transport) thermemu.Transport {
			if fcfg.Zero() {
				return tr
			}
			return etherlink.NewFaultTransport(tr, faultSeed, fcfg, fcfg)
		}
		var tr thermemu.Transport
		if redial {
			tr, err = etherlink.DialSupervised(etherlink.SupervisorConfig{
				Addr:         hostAddr,
				GracefulStop: true,
				Wrap:         wrap,
				Logf:         func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
			})
		} else {
			tr, err = thermemu.DialThermalHost(hostAddr)
			if err == nil {
				tr = wrap(tr)
			}
		}
		if err != nil {
			return err
		}
		defer tr.Close()
		cfg.Transport = tr
		cfg.DrainPhysCycles = 1000
	}

	var csv *os.File
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		csv = f
		defer csv.Close()
		fmt.Fprintln(csv, "time_s,cycle,freq_mhz,max_temp_k,total_power_w,throttled")
	}
	onSample := func(s core.Sample) {
		if csv == nil {
			return
		}
		var pw float64
		for _, w := range s.CompPowerW {
			pw += w
		}
		throttled := 0
		if s.Throttled {
			throttled = 1
		}
		fmt.Fprintf(csv, "%.6f,%d,%.0f,%.3f,%.4f,%d\n",
			float64(s.TimePs)*1e-12, s.Cycle, float64(s.FreqHz)/1e6, s.MaxTempK, pw, throttled)
	}

	res, err := thermemu.RunCoEmulation(cfg, onSample)
	if err != nil {
		return err
	}
	fmt.Printf("workload:       %s on %d cores over %s\n", spec.Name, cores, ic)
	fmt.Printf("cycles:         %d (%.4f s virtual)\n", res.Cycles, res.VirtualS)
	fmt.Printf("wall time:      %v\n", res.Wall)
	fmt.Printf("samples:        %d (window %.2f ms)\n", len(res.Samples), windowMs)
	fmt.Printf("max temp:       %.2f K\n", res.MaxTempK)
	fmt.Printf("DFS events:     %d\n", res.DFSEvents)
	if pipeline > 0 {
		fmt.Printf("pipeline:       depth %d (sensor latency %d windows), thermal lag %.3f ms frozen\n",
			pipeline, pipeline, float64(res.ThermalLagPs)*1e-9)
	}
	if digest {
		// The digest pins the whole run: identical flags must reproduce it
		// bit for bit (serial or parallel platform alike).
		fmt.Printf("golden digest:  %s over %d records\n", cfg.Golden.Hex(), cfg.Golden.Len())
	}
	if hostAddr != "" {
		fmt.Printf("link stats:     %d stats frames, %d temps frames, %d congestions, %d retries\n",
			res.Congestion.StatsSent, res.Congestion.TempsRecv, res.Congestion.Congestions,
			res.Congestion.Retries)
		fmt.Printf("link layer:     %s\n", res.Link)
	}
	if !res.Done {
		fmt.Println("note:           run stopped before the workload halted")
	}
	if report {
		fmt.Println()
		fmt.Println(res.Report)
	}
	writeArtifact := func(path string, write func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return f.Close()
	}
	if err := writeArtifact(vcdPath, func(f *os.File) error {
		return trace.WriteSamplesVCD(f, cfg.Host.FP, res.Samples)
	}); err != nil {
		return err
	}
	return writeArtifact(jsonPath, func(f *os.File) error {
		// The structured run document: summary (final temps, windows/s,
		// digest, thermal lag) plus the per-window sample series.
		sum := trace.NewRunSummary(spec.Name, cfg.Host.FP, res, len(res.Samples), cfg.Golden)
		return trace.WriteRunJSON(f, cfg.Host.FP, sum, res.Samples)
	})
}
