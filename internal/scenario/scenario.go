// Package scenario is the declarative front-end of the framework: a
// versioned text format that describes a complete emulation run — platform
// (cores, interconnect, frequency, memories), workload (a named corpus
// entry or inline R32 assembly), thermal configuration (floorplan, cell
// count, sampling window, pipeline depth), TM policy and an optional link
// fault spec — plus a strict parser, a canonical renderer, a validating
// linter and builders that turn a scenario into the same emu/core
// configurations the CLI flags produce, bit for bit.
//
// A scenario file looks like:
//
//	thermemu-scenario v1
//
//	[scenario]
//	name = table3-matrix
//
//	[platform]
//	cores = 4
//	ic = noc:ring:4
//	freq-mhz = 500
//
//	[workload]
//	name = matrix
//	n = 16
//	iters = 100
//
//	[tm]
//	policy = threshold-dfs
//
// Scenarios make new experiments data files instead of Go changes: every
// flag combination of cmd/thermemu is expressible, and the conformance
// tier proves a scenario-driven run digests identically to its flag-driven
// twin.
package scenario

import (
	"fmt"
	"io"
	"os"

	"thermemu/internal/asm"
	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/noc"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

// Version is the scenario format version this package reads and writes.
const Version = 1

// Header is the first non-comment line of every scenario file.
const Header = "thermemu-scenario v1"

// Program is one inline R32 assembly program. Core -1 means "all cores"
// (the [program] section); a non-negative core index comes from a
// [program N] section and applies to that core only.
type Program struct {
	Core int
	Src  string
}

// SharedWords is one initial shared-memory block, word-granular.
type SharedWords struct {
	Addr  uint32 // byte offset within shared memory, word-aligned
	Words []uint32
}

// Scenario is one fully-described run. The zero value is not runnable;
// Parse and Load return scenarios with all defaults applied, and New
// returns the default scenario to build on programmatically.
type Scenario struct {
	Name string
	// Digest asks the runner to accumulate the golden conformance digest
	// (the -digest flag in scenario form), pinning the run's evidence to
	// the file that describes it.
	Digest bool

	// [platform]
	Cores    int
	IC       string // opb | plb | custom | noc:pair | noc:mesh:WxH | noc:ring:N
	FreqMHz  int    // 0 = platform default (workloads may force their own)
	PrivKB   int
	SharedKB int

	// [workload] — a named corpus workload with its parameters...
	Workload string
	N        int
	Iters    int
	Size     int
	Words    int

	// ...or inline assembly ([program] / [program N] sections).
	Programs []Program

	// [shared] — extra initial shared-memory words.
	Shared []SharedWords

	// [thermal]
	Floorplan string // arm7 | arm11
	Cells     int
	WindowMs  float64
	Timescale float64
	Pipeline  int
	Workers   int

	// [tm]
	Policy string // none | threshold-dfs | proportional-dfs

	// [fault]
	Fault     string
	FaultSeed int64
}

// New returns a scenario with every field at its default — the same
// defaults the cmd/thermemu flags carry, so an empty scenario file (just
// the header) describes the CLI's default run.
func New() *Scenario {
	return &Scenario{
		Cores:     4,
		IC:        "opb",
		PrivKB:    64,
		SharedKB:  1024,
		N:         16,
		Iters:     10,
		Size:      64,
		Words:     64,
		Workload:  "matrix",
		Floorplan: "arm11",
		Cells:     28,
		WindowMs:  1.0,
		Timescale: 100,
		Policy:    "none",
		FaultSeed: 1,
	}
}

// MaxFileBytes bounds a scenario, sweep-spec or R32 assembly source file,
// as floorplan.MaxJSONBytes bounds a floorplan: the committed examples take
// about 1 KB and the largest workload program a few KB, so a larger file is
// a mistake or hostile input, not a scenario.
const MaxFileBytes = 1 << 20

// ReadSource reads a scenario, sweep-spec or assembly source file, refusing
// one longer than MaxFileBytes without reading past the limit.
func ReadSource(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	src, err := io.ReadAll(io.LimitReader(f, MaxFileBytes+1))
	if err != nil {
		return "", err
	}
	if len(src) > MaxFileBytes {
		return "", fmt.Errorf("%s: file exceeds %d bytes", path, MaxFileBytes)
	}
	return string(src), nil
}

// Load reads, parses and lints a scenario file.
func Load(path string) (*Scenario, error) {
	src, err := ReadSource(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if err := s.Lint(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// icKinds maps the bus spellings to their emu kinds; NoC specs are handled
// separately because they carry a topology suffix.
var icKinds = map[string]emu.ICKind{
	"opb":    emu.ICBusOPB,
	"plb":    emu.ICBusPLB,
	"custom": emu.ICBusCustom,
}

// parseIC splits an interconnect spec into its kind and, for NoC kinds,
// the parsed topology.
func parseIC(spec string) (emu.ICKind, *noc.Topology, error) {
	if k, ok := icKinds[spec]; ok {
		return k, nil, nil
	}
	if len(spec) > 4 && spec[:4] == "noc:" {
		topo, err := noc.ParseTopology(spec[4:])
		if err != nil {
			return 0, nil, err
		}
		return emu.ICNoC, topo, nil
	}
	return 0, nil, fmt.Errorf("unknown interconnect %q (want opb | plb | custom | noc:pair | noc:mesh:WxH | noc:ring:N)", spec)
}

// Platform builds the emulation platform configuration. It reproduces
// cmd/thermemu's flag plumbing exactly: DefaultConfig, interconnect switch
// (NoC cores attached round-robin, shared memory on the last switch),
// frequency override, then any workload-forced operating point.
func (s *Scenario) Platform() (emu.Config, error) {
	cfg := emu.DefaultConfig(s.Cores)
	cfg.PrivKB = s.PrivKB
	cfg.SharedKB = s.SharedKB
	kind, topo, err := parseIC(s.IC)
	if err != nil {
		return emu.Config{}, fmt.Errorf("scenario: %w", err)
	}
	cfg.IC = kind
	if topo != nil {
		for c := 0; c < s.Cores; c++ {
			topo.Attach(c, c%topo.Switches)
		}
		cfg.NoC = &emu.NoCSpec{Topo: topo, Cfg: noc.DefaultConfig(), MemSwitch: topo.Switches - 1}
	}
	if s.FreqMHz > 0 {
		cfg.FreqHz = uint64(s.FreqMHz) * 1e6
	}
	if s.Workload != "" {
		if b, ok := workloads.Lookup(s.Workload); ok && b.ForceFreqMHz > 0 {
			cfg.FreqHz = uint64(b.ForceFreqMHz) * 1e6
		}
	}
	return cfg, nil
}

// Params returns the workload parameters the scenario carries.
func (s *Scenario) Params() workloads.Params {
	return workloads.Params{
		Cores:  s.Cores,
		PrivKB: s.PrivKB,
		N:      s.N,
		Iters:  s.Iters,
		Size:   s.Size,
		Words:  s.Words,
	}
}

// Spec builds the workload: the named corpus entry, or the inline programs
// assembled into an anonymous spec (no Go reference verifier — inline
// programs carry their own semantics). Scenario [shared] blocks are
// appended after the workload's own.
func (s *Scenario) Spec() (*workloads.Spec, error) {
	var spec *workloads.Spec
	switch {
	case s.Workload != "" && len(s.Programs) > 0:
		return nil, fmt.Errorf("scenario: both a named workload (%q) and inline programs given", s.Workload)
	case s.Workload != "":
		built, err := workloads.Build(s.Workload, s.Params())
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		// Shallow-copy so appending scenario shared blocks never mutates
		// a spec the registry's builder might share.
		c := *built
		c.Shared = append([]workloads.SharedBlock{}, built.Shared...)
		spec = &c
	case len(s.Programs) > 0:
		images, err := s.assemblePrograms()
		if err != nil {
			return nil, err
		}
		spec = &workloads.Spec{Name: s.inlineName(), Programs: images}
	default:
		return nil, fmt.Errorf("scenario: no workload: set [workload] name or add [program] sections")
	}
	for _, b := range s.Shared {
		spec.Shared = append(spec.Shared, workloads.SharedBlock{Addr: b.Addr, Data: packWords(b.Words)})
	}
	return spec, nil
}

func (s *Scenario) inlineName() string {
	if s.Name != "" {
		return "inline/" + s.Name
	}
	return "inline"
}

// assemblePrograms assembles the inline programs into one image per core.
func (s *Scenario) assemblePrograms() ([]*asm.Image, error) {
	images := make([]*asm.Image, s.Cores)
	for _, p := range s.Programs {
		im, err := asm.Assemble(p.Src)
		if err != nil {
			which := "program"
			if p.Core >= 0 {
				which = fmt.Sprintf("program %d", p.Core)
			}
			return nil, fmt.Errorf("scenario: [%s]: %w", which, err)
		}
		if p.Core < 0 {
			for i := range images {
				images[i] = im
			}
		} else {
			if p.Core >= s.Cores {
				return nil, fmt.Errorf("scenario: [program %d] targets core beyond the %d-core platform", p.Core, s.Cores)
			}
			images[p.Core] = im
		}
	}
	for i, im := range images {
		if im == nil {
			return nil, fmt.Errorf("scenario: core %d has no program (give [program] for all cores or one [program N] per core)", i)
		}
	}
	return images, nil
}

// policies maps policy names to constructors. "none" maps to nil.
var policies = map[string]func() tm.Policy{
	"none":             func() tm.Policy { return nil },
	"threshold-dfs":    func() tm.Policy { return tm.NewThresholdDFS() },
	"proportional-dfs": func() tm.Policy { return tm.NewProportionalDFS() },
}

// PolicyNames lists the accepted [tm] policy values.
func PolicyNames() []string { return []string{"none", "proportional-dfs", "threshold-dfs"} }

// floorplans maps floorplan names to the Figure 4 layouts.
var floorplans = map[string]func() *floorplan.Floorplan{
	"arm7":  floorplan.FourARM7,
	"arm11": floorplan.FourARM11,
}

// CoEmulation builds the full closed-loop configuration: platform,
// workload, thermal host, window/pipeline settings and TM policy. The
// caller owns transport/fault wiring (FaultConfig below) and run-control
// knobs (digest, checkpoints, MaxCycles).
func (s *Scenario) CoEmulation() (core.Config, error) {
	spec, err := s.Spec()
	if err != nil {
		return core.Config{}, err
	}
	return s.coEmulation(spec)
}

// CoEmulations builds each scenario's CoEmulation configuration, sharing
// one workload build (and its assembly) among scenarios whose workloads
// are equal, as the points of one core.RunGroup are.
func CoEmulations(ss []*Scenario) ([]core.Config, error) {
	cfgs := make([]core.Config, len(ss))
	specs := map[string]*workloads.Spec{}
	for i, s := range ss {
		key := s.workloadKey()
		spec := specs[key]
		if spec == nil {
			var err error
			if spec, err = s.Spec(); err != nil {
				return nil, err
			}
			specs[key] = spec
		}
		cfg, err := s.coEmulation(spec)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// coEmulation is CoEmulation with the workload already built.
func (s *Scenario) coEmulation(spec *workloads.Spec) (core.Config, error) {
	pcfg, err := s.Platform()
	if err != nil {
		return core.Config{}, err
	}
	fpBuild, ok := floorplans[s.Floorplan]
	if !ok {
		return core.Config{}, fmt.Errorf("scenario: unknown floorplan %q (want arm7 | arm11)", s.Floorplan)
	}
	topt := thermal.DefaultOptions()
	if s.Workers > 0 {
		topt.Workers = s.Workers
	}
	host, err := core.NewThermalHost(fpBuild(), s.Cells, topt)
	if err != nil {
		return core.Config{}, err
	}
	mkPolicy, ok := policies[s.Policy]
	if !ok {
		return core.Config{}, fmt.Errorf("scenario: unknown policy %q (want none | threshold-dfs | proportional-dfs)", s.Policy)
	}
	return core.Config{
		Platform:         pcfg,
		Workload:         spec,
		Host:             host,
		WindowPs:         uint64(s.WindowMs * 1e9),
		ThermalTimeScale: s.Timescale,
		PipelineDepth:    s.Pipeline,
		Policy:           mkPolicy(),
	}, nil
}

// FaultConfig parses the scenario's link-fault spec (for transport-mode
// runs; the zero config means a clean link).
func (s *Scenario) FaultConfig() (etherlink.FaultConfig, error) {
	return etherlink.ParseFaultSpec(s.Fault)
}

// packWords serialises uint32s little-endian.
func packWords(vs []uint32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return b
}
