// Command thermemu runs the HW/SW co-emulation framework from the command
// line: it emulates an MPSoC running one of the paper's workloads, streams
// per-window power statistics to the SW thermal library (in-process by
// default, or to a remote cmd/thermserver over TCP), applies the selected
// run-time thermal-management policy, and reports the run.
//
// Every run is built from a scenario (internal/scenario): the file named by
// -scenario, or the default scenario without it. Each platform, workload,
// thermal, TM or fault flag the user sets overrides the matching scenario
// field, so a flag-only run and the equivalent scenario file are the same
// run.
//
// Examples:
//
//	thermemu -cores 4 -workload matrix -n 16 -iters 100
//	thermemu -cores 4 -workload matrix-tm -iters 400 -tm -csv run.csv
//	thermemu -cores 4 -workload dithering -size 64 -ic noc
//	thermemu -scenario examples/scenarios/fir.scn -digest   (declarative run)
//	thermemu -scenario examples/scenarios/fir.scn -iters 3   (scenario with an override)
//	thermemu -workload matrix-tm -host 127.0.0.1:9077   (remote thermal host)
//	thermemu -workload matrix-tm -iters 400 -digest -checkpoint ck/   (checkpointed)
//	thermemu -workload matrix-tm -iters 400 -digest -resume ck/win-000010.tmck
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	"thermemu"
	"thermemu/internal/etherlink"
	"thermemu/internal/scenario"
	"thermemu/internal/trace"
)

// options are the run-control values of the command line: everything a
// run needs that is not part of its scenario.
type options struct {
	ckptDir                     string
	ckptEvery                   int
	resume, fork                string
	host                        string
	report                      bool
	csv, vcd, json              string
	cpuProf, memProf, execTrace string
}

func main() {
	s, o, err := parseArgs(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag package already printed the error and usage
	case err != nil:
		fmt.Fprintln(os.Stderr, "thermemu:", err)
		os.Exit(1)
	}
	if err := profiled(o.cpuProf, o.memProf, o.execTrace, func() error { return run(s, o) }); err != nil {
		fmt.Fprintln(os.Stderr, "thermemu:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag package rejected (and already
// printed along with the usage).
var errUsage = errors.New("invalid command line")

// parseArgs parses the command line into the scenario to run and the
// run-control options. The scenario starts as the -scenario file, or as
// scenario.New() without one; every scenario flag the user set then
// overrides its field, and unset flags leave the scenario untouched.
func parseArgs(args []string) (*scenario.Scenario, options, error) {
	fs := flag.NewFlagSet("thermemu", flag.ContinueOnError)
	var o options
	// f holds the scenario flags' values; their defaults are New()'s, so a
	// flag's default and the default scenario cannot disagree.
	f := scenario.New()
	scenPath := fs.String("scenario", "", "start from this declarative scenario file instead of the default scenario (set flags override its fields)")
	fs.IntVar(&f.Cores, "cores", f.Cores, "emulated cores (1-8)")
	fs.StringVar(&f.Workload, "workload", f.Workload, "workload name from the corpus (an unknown name lists them all)")
	fs.IntVar(&f.N, "n", f.N, "matrix dimension / FIR taps / histogram bins")
	fs.IntVar(&f.Iters, "iters", f.Iters, "repetition count (sustained-load iterations)")
	fs.IntVar(&f.Size, "size", f.Size, "dithering image edge")
	fs.IntVar(&f.Words, "words", f.Words, "stream length (membound, fir, histogram) / pipeline items")
	ic := fs.String("ic", f.IC, "interconnect: opb | plb | custom | noc")
	nocSpec := fs.String("noc", "pair", "NoC topology when -ic noc: pair | mesh:WxH | ring:N")
	fs.IntVar(&f.FreqMHz, "freq", f.FreqMHz, "virtual clock in MHz (0 = platform default)")
	withTM := fs.Bool("tm", false, "enable the 350K/340K threshold DFS policy")
	fs.Float64Var(&f.WindowMs, "window", f.WindowMs, "sampling window in virtual ms")
	fs.IntVar(&f.Pipeline, "pipeline", f.Pipeline, "pipeline depth: overlap emulation with the thermal solve at a sensor latency of this many windows (0 = synchronous solve)")
	fs.Float64Var(&f.Timescale, "timescale", f.Timescale, "thermal time compression (1 = paper-faithful)")
	fs.IntVar(&f.Cells, "cells", f.Cells, "thermal cells for the floorplan grid")
	fs.IntVar(&f.Workers, "workers", f.Workers, "thermal solver shards (0 = auto, 1 = serial)")
	fs.StringVar(&o.csv, "csv", "", "write per-window samples to this CSV file")
	fs.StringVar(&o.host, "host", "", "remote thermal server address (empty = in-process)")
	fs.StringVar(&f.Fault, "fault", f.Fault, "inject link faults, e.g. drop=0.01,dup=0.005,reorder=0.01,corrupt=0.001,delay=2ms,cut=500 (applied to both directions)")
	fs.Int64Var(&f.FaultSeed, "fault-seed", f.FaultSeed, "PRNG seed for -fault")
	fs.BoolVar(&o.report, "report", false, "print the detailed platform statistics report")
	fs.BoolVar(&f.Digest, "digest", f.Digest, "accumulate and print the run's golden conformance digest")
	fs.StringVar(&o.ckptDir, "checkpoint", "", "write window-boundary checkpoints (win-NNNNNN.tmck) into this directory")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 10, "checkpoint cadence in sampling windows for -checkpoint")
	fs.StringVar(&o.resume, "resume", "", "resume a run from this checkpoint file (continues its golden digest lineage; flags must match the original run)")
	fs.StringVar(&o.fork, "fork", "", "like -resume but as a new experiment branching off the snapshot (fresh digest lineage)")
	fs.StringVar(&o.vcd, "vcd", "", "write the run as a VCD waveform to this path")
	fs.StringVar(&o.json, "json", "", "write the run's samples as JSON to this path")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&o.execTrace, "exectrace", "", "write a runtime execution trace of the run to this path (inspect with go tool trace)")
	fs.StringVar(&o.memProf, "memprofile", "", "write a pprof heap profile at exit to this path")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, o, err
		}
		return nil, o, errUsage
	}

	s := scenario.New()
	if *scenPath != "" {
		var err error
		if s, err = scenario.Load(*scenPath); err != nil {
			return nil, o, err
		}
	}
	fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "cores":
			s.Cores = f.Cores
		case "workload":
			s.Workload = f.Workload
			s.Programs = nil // a named workload replaces inline programs
		case "n":
			s.N = f.N
		case "iters":
			s.Iters = f.Iters
		case "size":
			s.Size = f.Size
		case "words":
			s.Words = f.Words
		case "ic":
			s.IC = *ic
			if *ic == "noc" {
				s.IC = "noc:" + *nocSpec
			}
		case "noc":
			if strings.HasPrefix(s.IC, "noc:") || *ic == "noc" {
				s.IC = "noc:" + *nocSpec
			}
		case "freq":
			s.FreqMHz = f.FreqMHz
		case "tm":
			s.Policy = "none"
			if *withTM {
				s.Policy = "threshold-dfs"
			}
		case "window":
			s.WindowMs = f.WindowMs
		case "pipeline":
			s.Pipeline = f.Pipeline
		case "timescale":
			s.Timescale = f.Timescale
		case "cells":
			s.Cells = f.Cells
		case "workers":
			s.Workers = f.Workers
		case "fault":
			s.Fault = f.Fault
		case "fault-seed":
			s.FaultSeed = f.FaultSeed
		case "digest":
			s.Digest = f.Digest
		}
	})
	return s, o, nil
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

func run(s *scenario.Scenario, o options) error {
	if err := s.Lint(); err != nil {
		return err
	}
	for _, w := range s.Warnings() {
		fmt.Fprintf(os.Stderr, "thermemu: warning: %s\n", w)
	}
	cfg, err := s.CoEmulation()
	if err != nil {
		return err
	}
	spec := cfg.Workload
	if s.Digest {
		cfg.Golden = thermemu.NewGoldenTrace()
	}
	if o.ckptDir != "" {
		if err := os.MkdirAll(o.ckptDir, 0o755); err != nil {
			return err
		}
		cfg.CheckpointEvery = o.ckptEvery
		cfg.CheckpointSink = func(c *thermemu.Checkpoint) error {
			name := fmt.Sprintf("win-%06d.tmck", c.Window)
			if c.Partial {
				name = fmt.Sprintf("win-%06d-partial.tmck", c.Window)
			}
			return c.WriteFile(filepath.Join(o.ckptDir, name))
		}
	}
	if o.resume != "" && o.fork != "" {
		return fmt.Errorf("-resume and -fork are mutually exclusive")
	}
	if path := o.resume + o.fork; path != "" {
		c, err := thermemu.ReadCheckpoint(path)
		if err != nil {
			return err
		}
		cfg.Resume = c
		cfg.Fork = o.fork != ""
		fmt.Printf("resuming:       %s (window %d, cycle %d, partial=%v)\n",
			path, c.Window, c.Platform.Clock.Cycle, c.Partial)
	}
	if o.host != "" {
		fcfg, err := s.FaultConfig()
		if err != nil {
			return err
		}
		tr, err := thermemu.DialThermalHost(o.host)
		if err != nil {
			return err
		}
		if !fcfg.Zero() {
			tr = etherlink.NewFaultTransport(tr, s.FaultSeed, fcfg, fcfg)
		}
		defer tr.Close()
		cfg.Transport = tr
		cfg.DrainPhysCycles = 1000
	}

	var csv *os.File
	if o.csv != "" {
		f, err := os.Create(o.csv)
		if err != nil {
			return err
		}
		csv = f
		defer csv.Close()
		fmt.Fprintln(csv, "time_s,cycle,freq_mhz,max_temp_k,total_power_w,throttled")
	}
	onSample := func(smp thermemu.Sample) {
		if csv == nil {
			return
		}
		var pw float64
		for _, w := range smp.CompPowerW {
			pw += w
		}
		throttled := 0
		if smp.Throttled {
			throttled = 1
		}
		fmt.Fprintf(csv, "%.6f,%d,%.0f,%.3f,%.4f,%d\n",
			float64(smp.TimePs)*1e-12, smp.Cycle, float64(smp.FreqHz)/1e6, smp.MaxTempK, pw, throttled)
	}

	res, err := thermemu.RunCoEmulation(cfg, onSample)
	if err != nil {
		return err
	}
	fmt.Printf("workload:       %s on %d cores over %s\n", spec.Name, s.Cores, s.IC)
	fmt.Printf("cycles:         %d (%.4f s virtual)\n", res.Cycles, res.VirtualS)
	fmt.Printf("wall time:      %v\n", res.Wall)
	fmt.Printf("samples:        %d (window %.2f ms)\n", len(res.Samples), s.WindowMs)
	fmt.Printf("max temp:       %.2f K\n", res.MaxTempK)
	fmt.Printf("DFS events:     %d\n", res.DFSEvents)
	if s.Pipeline > 0 {
		fmt.Printf("pipeline:       depth %d (sensor latency %d windows), thermal lag %.3f ms frozen\n",
			s.Pipeline, s.Pipeline, float64(res.ThermalLagPs)*1e-9)
	} else if res.Cycles > 0 {
		fmt.Printf("overlap:        %d cycles (%.1f%%) emulated while a verdict was outstanding\n",
			res.OverlapCycles, 100*float64(res.OverlapCycles)/float64(res.Cycles))
		// The wait is host timing, so it stays off the overlap line, which
		// two runs of one scenario print identically.
		fmt.Printf("verdict wait:   %v (%.1f%% of wall) blocked on verdicts\n",
			res.VerdictWait, 100*res.VerdictWait.Seconds()/res.Wall.Seconds())
	}
	if s.Digest {
		// The digest pins the whole run: identical flags must reproduce it
		// bit for bit (serial or parallel platform alike).
		fmt.Printf("golden digest:  %s over %d records\n", cfg.Golden.Hex(), cfg.Golden.Len())
	}
	if o.host != "" {
		fmt.Printf("link stats:     %d windows sent, %d answered, in %d frames out and %d in; %d congestions, %d retries\n",
			res.Link.WindowsSent, res.Link.WindowsAnswered, res.Link.FramesSent, res.Link.FramesRecv,
			res.Link.Congestions, res.Link.Retries)
		fmt.Printf("link layer:     %s\n", res.Link)
	}
	if !res.Done {
		fmt.Println("note:           run stopped before the workload halted")
	}
	if o.report {
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
	if err := writeArtifact(o.vcd, func(f *os.File) error {
		return trace.WriteSamplesVCD(f, cfg.Host.FP, res.Samples)
	}); err != nil {
		return err
	}
	return writeArtifact(o.json, func(f *os.File) error {
		// The structured run document: summary (final temps, windows/s,
		// digest, thermal lag) plus the per-window sample series.
		sum := trace.NewRunSummary(spec.Name, cfg.Host.FP, res, len(res.Samples), cfg.Golden)
		return trace.WriteRunJSON(f, cfg.Host.FP, sum, res.Samples)
	})
}
