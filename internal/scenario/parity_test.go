package scenario

import (
	"fmt"
	"testing"

	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/floorplan"
	"thermemu/internal/golden"
	"thermemu/internal/noc"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

// digestOf runs one closed-loop configuration to completion and returns
// its golden digest line.
func digestOf(t *testing.T, cfg core.Config) string {
	t.Helper()
	cfg.Golden = golden.New()
	cfg.MaxCycles = conformanceMaxCycles
	res, err := core.Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not halt")
	}
	return fmt.Sprintf("%s %d", cfg.Golden.Hex(), cfg.Golden.Len())
}

// TestScenarioMatchesFlagDrivenRun is the bit-identity acceptance claim:
// a scenario file and the cmd/thermemu flag plumbing it replaces build
// configurations whose runs digest identically. The flag side below is a
// line-by-line replica of cmd/thermemu's construction order.
func TestScenarioMatchesFlagDrivenRun(t *testing.T) {
	cases := []struct {
		name string
		scn  string
		// flags mirrors: -cores -workload -n -iters -size -words -ic -noc
		// -freq -tm -window -timescale -cells
		cfg func(t *testing.T) core.Config
	}{
		{
			name: "matrix-opb",
			scn: Header + `
[platform]
cores = 4
[workload]
name = matrix
n = 8
iters = 2
`,
			cfg: func(t *testing.T) core.Config {
				return flagConfig(t, flagSet{cores: 4, workload: "matrix", n: 8, iters: 2})
			},
		},
		{
			// -freq 100 loses to matrix-tm's pinned 500 MHz operating point
			// on both sides.
			name: "matrix-tm-forced-freq",
			scn: Header + `
[platform]
cores = 4
ic = noc:ring:4
freq-mhz = 100
[workload]
name = matrix-tm
n = 8
iters = 2
[tm]
policy = threshold-dfs
`,
			cfg: func(t *testing.T) core.Config {
				return flagConfig(t, flagSet{cores: 4, workload: "matrix-tm", n: 8, iters: 2,
					ic: "noc", nocSpec: "ring:4", freqMHz: 100, withTM: true})
			},
		},
		{
			name: "fir-blocks-plb",
			scn: Header + `
[platform]
cores = 4
ic = plb
[workload]
name = fir
n = 8
words = 32
iters = 2
`,
			cfg: func(t *testing.T) core.Config {
				return flagConfig(t, flagSet{cores: 4, workload: "fir", n: 8, words: 32, iters: 2,
					ic: "plb"})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse(tc.scn)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Lint(); err != nil {
				t.Fatal(err)
			}
			scfg, err := s.CoEmulation()
			if err != nil {
				t.Fatal(err)
			}
			got := digestOf(t, scfg)
			want := digestOf(t, tc.cfg(t))
			if got != want {
				t.Errorf("scenario digest %s differs from flag-driven digest %s", got, want)
			}
		})
	}
}

// flagSet carries the cmd/thermemu flag values the parity cases exercise;
// zero values are the CLI defaults.
type flagSet struct {
	cores            int
	workload         string
	n, iters, size   int
	words            int
	ic, nocSpec      string
	freqMHz          int
	withTM           bool
	windowMs, tscale float64
	cells            int
}

// flagConfig replicates cmd/thermemu's run() construction order exactly.
func flagConfig(t *testing.T, f flagSet) core.Config {
	t.Helper()
	if f.ic == "" {
		f.ic = "opb"
	}
	if f.n == 0 {
		f.n = 16
	}
	if f.iters == 0 {
		f.iters = 10
	}
	if f.size == 0 {
		f.size = 64
	}
	if f.words == 0 {
		f.words = 64
	}
	if f.windowMs == 0 {
		f.windowMs = 1.0
	}
	if f.tscale == 0 {
		f.tscale = 100
	}
	if f.cells == 0 {
		f.cells = 28
	}
	pcfg := emu.DefaultConfig(f.cores)
	switch f.ic {
	case "opb":
		pcfg.IC = emu.ICBusOPB
	case "plb":
		pcfg.IC = emu.ICBusPLB
	case "noc":
		pcfg.IC = emu.ICNoC
		topo, err := noc.ParseTopology(f.nocSpec)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < f.cores; c++ {
			topo.Attach(c, c%topo.Switches)
		}
		pcfg.NoC = &emu.NoCSpec{Topo: topo, Cfg: noc.DefaultConfig(), MemSwitch: topo.Switches - 1}
	default:
		t.Fatalf("unknown interconnect %q", f.ic)
	}
	if f.freqMHz > 0 {
		pcfg.FreqHz = uint64(f.freqMHz) * 1e6
	}
	spec, err := workloads.Build(f.workload, workloads.Params{
		Cores: f.cores, PrivKB: pcfg.PrivKB, N: f.n, Iters: f.iters, Size: f.size, Words: f.words,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := workloads.Lookup(f.workload); b.ForceFreqMHz > 0 {
		pcfg.FreqHz = uint64(b.ForceFreqMHz) * 1e6
	}
	host, err := core.NewThermalHost(floorplan.FourARM11(), f.cells, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Platform:         pcfg,
		Workload:         spec,
		Host:             host,
		WindowPs:         uint64(f.windowMs * 1e9),
		ThermalTimeScale: f.tscale,
	}
	if f.withTM {
		cfg.Policy = tm.NewThresholdDFS()
	}
	return cfg
}
