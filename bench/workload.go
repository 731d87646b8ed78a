package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/golden"
	"thermemu/internal/mparm"
	"thermemu/internal/scenario"
	"thermemu/internal/sweep"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

// workload is one benchmark input: a scenario file run as one closed loop,
// or a sweep spec run as a grid.
type workload struct {
	name string
	file string // under workloads/
	// link routes the loop's statistics and temperatures over an etherlink
	// loopback pair to a ThermalHost.Serve goroutine (the paper's
	// device/host split) instead of calling the solver in process.
	link bool
	grid bool
	// tiny shrinks the workload to a few windows; the tests use it.
	tiny bool
}

var allWorkloads = []workload{
	{name: "fig6", file: "fig6.scn"},
	{name: "membound", file: "membound.scn"},
	{name: "hostlink", file: "hostlink.scn", link: true},
	{name: "grid", file: "grid.sweep", grid: true},
}

const (
	// mparmCycles is the length of the MPARM slice each repetition times,
	// half before and half after the measured call, so the pair shares the
	// host's state and a drift across the repetition cancels.
	mparmCycles = 500
	// gridWorkers is the sweep's in-process worker count, sized for a
	// 2-CPU host and fixed so the workload is the same on every host.
	gridWorkers = 2
	// setupsPerRep is how many times a repetition sets its workload up; the
	// last set-up is the one that runs, all are timed.
	setupsPerRep = 10
	// tinyIters and tinyWarmup size the tests' tiny workloads.
	tinyIters  = 6
	tinyWarmup = 2
)

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// unitDigest is the golden digest of one closed-loop run: the workload's
// run, or one grid point.
type unitDigest struct {
	Hex     string `json:"digest"`
	Records int    `json:"records"`
}

func (d unitDigest) String() string { return fmt.Sprintf("%s %d", d.Hex, d.Records) }

// pinned is a workload's committed golden evidence: one digest per unit
// and the simulated work (platform cycles and instructions, summed over
// every run of the workload, each shared warm-up counted once).
type pinned struct {
	units  map[string]unitDigest
	cycles uint64
	instr  uint64
}

func pinPath(dir, name string) string { return filepath.Join(dir, "testdata", name+".digest") }

func readPinned(dir, name string) (*pinned, error) {
	src, err := os.ReadFile(pinPath(dir, name))
	if err != nil {
		return nil, fmt.Errorf("pinned digests (refresh with -update): %w", err)
	}
	pn := &pinned{units: map[string]unitDigest{}}
	for i, line := range strings.Split(strings.TrimSpace(string(src)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s line %d: want 3 fields, got %q", pinPath(dir, name), i+1, line)
		}
		base := 16 // <unit> <digest hex> <records>
		if f[0] == "work" {
			base = 10 // work <cycles> <instructions>
		}
		a, err1 := strconv.ParseUint(f[1], base, 64)
		b, err2 := strconv.ParseUint(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s line %d: malformed %q", pinPath(dir, name), i+1, line)
		}
		if f[0] == "work" {
			pn.cycles, pn.instr = a, b
			continue
		}
		pn.units[f[0]] = unitDigest{Hex: f[1], Records: int(b)}
	}
	if pn.cycles == 0 || pn.instr == 0 || len(pn.units) == 0 {
		return nil, fmt.Errorf("%s: no digests or no work line", pinPath(dir, name))
	}
	return pn, nil
}

func writePinned(dir, name string, units map[string]unitDigest, cycles, instr uint64) error {
	order := make([]string, 0, len(units))
	for u := range units {
		order = append(order, u)
	}
	sort.Strings(order)
	var b strings.Builder
	for _, u := range order {
		fmt.Fprintf(&b, "%s %s %d\n", u, units[u].Hex, units[u].Records)
	}
	fmt.Fprintf(&b, "work %d %d\n", cycles, instr)
	return os.WriteFile(pinPath(dir, name), []byte(b.String()), 0o644)
}

// checkDigests compares a run's unit digests with the pinned ones.
func checkDigests(got map[string]unitDigest, pn *pinned) error {
	if len(got) != len(pn.units) {
		return fmt.Errorf("%d runs digested, %d pinned", len(got), len(pn.units))
	}
	for name, want := range pn.units {
		if g, ok := got[name]; !ok || g != want {
			return fmt.Errorf("%s: digest %v, pinned %v", name, g, want)
		}
	}
	return nil
}

// loadScenario reads a scenario workload file.
func (w workload) loadScenario(dir string) (*scenario.Scenario, error) {
	s, err := scenario.Load(filepath.Join(dir, "workloads", w.file))
	if err != nil {
		return nil, err
	}
	if w.tiny {
		s.Iters = tinyIters
	}
	return s, nil
}

// loadGrid reads and expands the sweep workload. It returns the spec's
// name, the points and the warm-up window count.
func (w workload) loadGrid(dir string) (string, []sweep.Point, int, error) {
	sp, err := sweep.LoadSpec(filepath.Join(dir, "workloads", w.file))
	if err != nil {
		return "", nil, 0, err
	}
	points, err := sp.Expand(filepath.Join(dir, "workloads"))
	if err != nil {
		return "", nil, 0, err
	}
	warmup := sp.WarmupWindows
	if w.tiny {
		warmup = tinyWarmup
		for i := range points {
			points[i].Scenario.Iters = tinyIters
		}
	}
	return sp.Name, points, warmup, nil
}

// thermalOptions and the two name maps below mirror scenario.CoEmulation,
// so the traced replay can build every layer itself.
func thermalOptions(s *scenario.Scenario) thermal.Options {
	opt := thermal.DefaultOptions()
	if s.Workers > 0 {
		opt.Workers = s.Workers
	}
	return opt
}

func floorplanFor(name string) (*floorplan.Floorplan, error) {
	switch name {
	case "arm7":
		return floorplan.FourARM7(), nil
	case "arm11":
		return floorplan.FourARM11(), nil
	}
	return nil, fmt.Errorf("unknown floorplan %q", name)
}

func policyFor(name string) (tm.Policy, error) {
	switch name {
	case "none":
		return nil, nil
	case "threshold-dfs":
		return tm.NewThresholdDFS(), nil
	case "proportional-dfs":
		return tm.NewProportionalDFS(), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// newPlatform builds and loads a platform for a workload spec.
func newPlatform(pcfg emu.Config, spec *workloads.Spec) (*emu.Platform, error) {
	p, err := emu.New(pcfg)
	if err != nil {
		return nil, err
	}
	if len(spec.Programs) != len(p.Cores) {
		return nil, fmt.Errorf("workload has %d programs for %d cores", len(spec.Programs), len(p.Cores))
	}
	for i, im := range spec.Programs {
		if err := p.LoadProgram(i, im); err != nil {
			return nil, err
		}
	}
	for _, b := range spec.Shared {
		p.WriteShared(b.Addr, b.Data)
	}
	return p, nil
}

// prepared is one set-up repetition, ready to run.
type prepared struct {
	// Scenario workloads.
	cfg    core.Config
	remote *core.ThermalHost // link workloads: the host-PC side
	// Grid workload.
	gridName string
	points   []sweep.Point
	warmup   int
	// The platform the MPARM slice runs.
	pcfg emu.Config
	spec *workloads.Spec
}

// setup is what setup_s times: scenario (or sweep spec) load and lint, and
// the CoEmulation build including the thermal host (grid: Expand, which
// loads and lints every point).
func (w workload) setup(dir string) (*prepared, error) {
	if w.grid {
		name, points, warmup, err := w.loadGrid(dir)
		if err != nil {
			return nil, err
		}
		return &prepared{gridName: name, points: points, warmup: warmup}, nil
	}
	s, err := w.loadScenario(dir)
	if err != nil {
		return nil, err
	}
	cfg, err := s.CoEmulation()
	if err != nil {
		return nil, err
	}
	cfg.Golden = golden.New()
	pr := &prepared{cfg: cfg, pcfg: cfg.Platform, spec: cfg.Workload}
	if w.link {
		if pr.remote, err = core.NewThermalHost(cfg.Host.FP, s.Cells, thermalOptions(s)); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// mparmKernel wraps a fresh copy of the workload's platform (for the grid,
// the base scenario's, which every point shares) in the MPARM kernel.
func (pr *prepared) mparmKernel() (*mparm.Kernel, error) {
	if pr.spec == nil {
		s := pr.points[0].Scenario
		var err error
		if pr.pcfg, err = s.Platform(); err != nil {
			return nil, err
		}
		if pr.spec, err = s.Spec(); err != nil {
			return nil, err
		}
	}
	p, err := newPlatform(pr.pcfg, pr.spec)
	if err != nil {
		return nil, err
	}
	return mparm.New(p), nil
}

// repResult is one measured repetition.
type repResult struct {
	setupS  []float64
	wallS   float64
	windows int
	cycles  uint64 // simulated platform cycles of work
	instr   uint64
	allocB  uint64
	allocN  uint64
	mparmS  float64
	mparmEv uint64
	digests map[string]unitDigest
	// Layer observations of the run itself.
	framesSent, frames, bytes uint64
	lagS                      float64
	steals                    int
	warmupWallS               float64
}

// heapAllocs returns the process's cumulative heap allocation. ReadMemStats
// flushes every cache first, so the counts are exact; runtime/metrics'
// cheaper counters lag by whole cache spans.
func heapAllocs() (bytes, objects uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// rep sets the workload up setupsPerRep times, then runs the last set-up
// through its public entry point (core.Run or sweep.RunPoints) between the
// two halves of a mparm.Kernel.Step slice of the same platform.
func (w workload) rep(dir string, rng *rand.Rand) (*repResult, error) {
	r := &repResult{}
	var pr *prepared
	for i := 0; i < setupsPerRep; i++ {
		// Every timed call starts from a collected heap, as it would in a
		// fresh process, so earlier garbage does not land in its time.
		runtime.GC()
		t0 := time.Now()
		var err error
		if pr, err = w.setup(dir); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	k, err := pr.mparmKernel()
	if err != nil {
		return nil, err
	}
	r.stepMPARM(k)
	if w.grid {
		err = r.runGrid(pr, rng)
	} else {
		err = r.runLoop(w, pr)
	}
	if err != nil {
		return nil, err
	}
	r.stepMPARM(k)
	if err := k.VerifyObserved(); err != nil {
		return nil, err
	}
	r.mparmEv = k.Stats().Evaluations
	return r, nil
}

func (r *repResult) runLoop(w workload, pr *prepared) error {
	cfg := pr.cfg
	var (
		devTr    etherlink.Transport
		serveErr chan error
	)
	if w.link {
		var hostTr etherlink.Transport
		devTr, hostTr = etherlink.LoopbackPair(16)
		cfg.Transport = devTr
		serveErr = make(chan error, 1)
		go func() { serveErr <- pr.remote.Serve(hostTr) }()
	}
	runtime.GC()
	b0, n0 := heapAllocs()
	t0 := time.Now()
	res, err := core.Run(cfg, nil)
	r.wallS = time.Since(t0).Seconds()
	b1, n1 := heapAllocs()
	if devTr != nil {
		// Closing the device end releases the host if the run aborted
		// before sending CtrlStop.
		devTr.Close()
		if serr := <-serveErr; serr != nil && err == nil {
			err = fmt.Errorf("thermal host: %w", serr)
		}
	}
	if err != nil {
		return err
	}
	if !res.Done {
		return fmt.Errorf("run did not finish")
	}
	r.allocB, r.allocN = b1-b0, n1-n0
	r.windows = len(res.Samples)
	r.cycles = res.Cycles
	for _, c := range res.FinalSnap.Cores {
		r.instr += c.Instructions
	}
	r.digests = map[string]unitDigest{w.name: {cfg.Golden.Hex(), cfg.Golden.Len()}}
	r.framesSent = res.Link.FramesSent
	r.frames = res.Link.FramesSent + res.Link.FramesRecv
	r.bytes = res.Link.BytesSent + res.Link.BytesRecv
	r.lagS = float64(res.ThermalLagPs) * 1e-12
	return nil
}

func (r *repResult) runGrid(pr *prepared, rng *rand.Rand) error {
	// The seed permutes the dispatch order; results are matched by name.
	points := append([]sweep.Point(nil), pr.points...)
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	runtime.GC()
	b0, n0 := heapAllocs()
	t0 := time.Now()
	out, err := sweep.RunPoints(pr.gridName, points, pr.warmup, sweep.Options{Workers: gridWorkers})
	r.wallS = time.Since(t0).Seconds()
	b1, n1 := heapAllocs()
	if err != nil {
		return err
	}
	r.allocB, r.allocN = b1-b0, n1-n0
	r.digests = map[string]unitDigest{}
	for _, res := range out.Results {
		if !res.Done || res.Partial {
			return fmt.Errorf("point %s did not finish", res.Name)
		}
		r.digests[res.Name] = unitDigest{res.Digest, res.DigestRecords}
		r.lagS += float64(res.ThermalLagPs) * 1e-12
	}
	r.windows = out.Windows() + out.WarmupGroups*out.WarmupWindows
	r.steals = out.Steals
	r.warmupWallS = out.WarmupWallS
	return nil
}

// stepMPARM times half of the repetition's MPARM slice. The caller checks
// the kernel's signal-recovered statistics against the platform's own.
func (r *repResult) stepMPARM(k *mparm.Kernel) {
	runtime.GC()
	t0 := time.Now()
	k.Step(mparmCycles / 2)
	r.mparmS += time.Since(t0).Seconds()
}

// check verifies a repetition against the pinned evidence and fills the
// grid's work counts, which sweep results do not carry.
func (r *repResult) check(w workload, pn *pinned) error {
	if err := checkDigests(r.digests, pn); err != nil {
		return err
	}
	if w.grid {
		r.cycles, r.instr = pn.cycles, pn.instr
		return nil
	}
	if r.cycles != pn.cycles || r.instr != pn.instr {
		return fmt.Errorf("work %d cycles %d instructions, pinned %d %d", r.cycles, r.instr, pn.cycles, pn.instr)
	}
	return nil
}
