// Package sweep runs design-space exploration grids: a versioned spec file
// names a base scenario and up to five axes (scenario × workload × TM
// policy × floorplan × frequency), the coordinator expands the cartesian
// grid into points and groups the points that share a platform (equal
// WarmupKey: they differ only in TM policy) into jobs, fans the jobs out
// to workers over etherlink — in-process loopback pairs for single-machine
// runs, TCP transports for distributed ones — with work-stealing
// straggler re-dispatch, and merges the per-point results into the
// benchgate line format so sweeps regression-gate like benchmarks. A
// worker runs a job as one co-emulation (RunGroup): the platform is
// emulated once for all of the job's points.
//
// Determinism is the contract: every point runs through the exact
// scenario→core.Config path cmd/thermemu uses, so a point's golden digest
// is bit-identical to the same scenario run serially, no matter which
// worker ran it, in which group, how often it was re-dispatched, or how
// faulty the link was.
//
// When the spec sets warmup-windows, the coordinator first runs each
// platform's common prefix once with TM off, cuts a TMCK checkpoint at the
// warm-up boundary, and ships it with every job: points with TM off resume
// the lineage (their digest equals the uninterrupted serial run), points
// with a policy fork from it (a what-if branch off the shared prefix),
// eliminating the redundant warm-up cycles across the grid.
package sweep

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"thermemu/internal/scenario"
)

// Header is the first non-comment line of every sweep spec file.
const Header = "thermemu-sweep v1"

// Spec is one parsed sweep grid description.
type Spec struct {
	Name string
	// WarmupWindows > 0 shares a TM-off warm-up prefix of this many
	// sampling windows across the grid via checkpoints.
	WarmupWindows int
	// Base is the base scenario file, relative to the spec file
	// ("" = the default scenario).
	Base string

	// The axes. An empty axis keeps the base scenario's value; the grid is
	// the cartesian product of the non-empty ones.
	Scenarios  []string // scenario file paths, relative to the spec file
	Workloads  []string
	Policies   []string
	Floorplans []string
	FreqsMHz   []int
}

// axisNames lists the accepted [axis ...] section names.
var axisNames = []string{"scenario", "workload", "policy", "floorplan", "freq-mhz"}

// ParseSpec reads a sweep spec from its text form, with the same strict
// stance as the scenario parser: unknown sections or keys, duplicates and
// malformed values are errors carrying their line number.
func ParseSpec(src string) (*Spec, error) {
	sp := &Spec{}
	seenSec := map[string]bool{}
	seenKey := map[string]bool{}
	section := ""
	header := false
	for i, raw := range strings.Split(src, "\n") {
		no := i + 1
		line := strings.TrimSpace(raw)
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = strings.TrimSpace(line[:j])
		}
		if line == "" {
			continue
		}
		if !header {
			if line != Header {
				return nil, fmt.Errorf("line %d: not a sweep spec: first line must be %q, got %q", no, Header, line)
			}
			header = true
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("line %d: malformed section header %q", no, line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			switch {
			case name == "sweep", name == "base":
			case strings.HasPrefix(name, "axis "):
				axis := strings.TrimSpace(strings.TrimPrefix(name, "axis "))
				if !validAxis(axis) {
					return nil, fmt.Errorf("line %d: unknown axis %q (want %s)", no, axis, strings.Join(axisNames, " | "))
				}
			default:
				return nil, fmt.Errorf("line %d: unknown section [%s]", no, name)
			}
			if seenSec[name] {
				return nil, fmt.Errorf("line %d: duplicate section [%s]", no, name)
			}
			seenSec[name] = true
			section = name
			continue
		}
		if section == "" {
			return nil, fmt.Errorf("line %d: %q outside any section", no, line)
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: malformed line %q: want key = value", no, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		qual := section + "." + key
		if seenKey[qual] {
			return nil, fmt.Errorf("line %d: duplicate key %q in [%s]", no, key, section)
		}
		seenKey[qual] = true
		if val == "" {
			return nil, fmt.Errorf("line %d: key %q in [%s] has no value", no, key, section)
		}
		if err := sp.assign(section, key, val); err != nil {
			return nil, fmt.Errorf("line %d: %v", no, err)
		}
	}
	if !header {
		return nil, fmt.Errorf("empty sweep spec: missing %q header", Header)
	}
	return sp, nil
}

func validAxis(name string) bool {
	for _, a := range axisNames {
		if a == name {
			return true
		}
	}
	return false
}

func (sp *Spec) assign(section, key, val string) error {
	switch section + "." + key {
	case "sweep.name":
		sp.Name = val
	case "sweep.warmup-windows":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("sweep.warmup-windows: want a non-negative window count, got %q", val)
		}
		sp.WarmupWindows = n
	case "base.scenario":
		sp.Base = val
	case "axis scenario.values":
		sp.Scenarios = splitValues(val)
	case "axis workload.values":
		sp.Workloads = splitValues(val)
	case "axis policy.values":
		sp.Policies = splitValues(val)
	case "axis floorplan.values":
		sp.Floorplans = splitValues(val)
	case "axis freq-mhz.values":
		for _, v := range splitValues(val) {
			mhz, err := strconv.Atoi(v)
			if err != nil || mhz <= 0 {
				return fmt.Errorf("axis freq-mhz: want positive MHz values, got %q", v)
			}
			sp.FreqsMHz = append(sp.FreqsMHz, mhz)
		}
	default:
		return fmt.Errorf("unknown key %q in [%s]", key, section)
	}
	return nil
}

func splitValues(val string) []string {
	var out []string
	for _, v := range strings.Split(val, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// LoadSpec reads and parses a sweep spec file of at most
// scenario.MaxFileBytes.
func LoadSpec(path string) (*Spec, error) {
	src, err := scenario.ReadSource(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	sp, err := ParseSpec(src)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return sp, nil
}

// Point is one expanded grid point: a fully-described, linted scenario.
type Point struct {
	Index    int
	Name     string
	Scenario *scenario.Scenario
}

// WarmupKey groups points that share a warm-up prefix: the canonical render
// of the point's scenario with the TM policy forced off and identity fields
// cleared. Two points with equal keys run the same platform, workload and
// thermal configuration up to the first policy decision, so one TM-off
// prefix checkpoint serves them all.
func (p *Point) WarmupKey() string {
	c := *p.Scenario
	c.Name = ""
	c.Digest = false
	c.Policy = "none"
	return c.Render()
}

// Expand builds the cartesian grid. dir resolves the spec's scenario file
// paths (the spec file's directory). Every point is linted, and points with
// equal workloads share one workload build; a broken point reports its
// grid coordinates.
func (sp *Spec) Expand(dir string) ([]Point, error) {
	type basePair struct {
		label string
		s     *scenario.Scenario
	}
	var bases []basePair
	load := func(rel string) (*scenario.Scenario, error) {
		return scenario.Load(filepath.Join(dir, rel))
	}
	switch {
	case len(sp.Scenarios) > 0:
		if sp.Base != "" {
			return nil, fmt.Errorf("sweep: both [base] scenario and an [axis scenario] given")
		}
		for _, rel := range sp.Scenarios {
			s, err := load(rel)
			if err != nil {
				return nil, fmt.Errorf("sweep: axis scenario %q: %w", rel, err)
			}
			label := strings.TrimSuffix(filepath.Base(rel), filepath.Ext(rel))
			bases = append(bases, basePair{label, s})
		}
	case sp.Base != "":
		s, err := load(sp.Base)
		if err != nil {
			return nil, fmt.Errorf("sweep: base scenario %q: %w", sp.Base, err)
		}
		label := strings.TrimSuffix(filepath.Base(sp.Base), filepath.Ext(sp.Base))
		bases = append(bases, basePair{label, s})
	default:
		bases = append(bases, basePair{"default", scenario.New()})
	}

	// An empty axis contributes the base's own value, marked "" so the
	// point name omits it.
	orEmpty := func(vs []string) []string {
		if len(vs) == 0 {
			return []string{""}
		}
		return vs
	}
	freqs := sp.FreqsMHz
	if len(freqs) == 0 {
		freqs = []int{0}
	}

	var (
		points []Point
		lint   scenario.Linter // builds each distinct workload once
	)
	for _, base := range bases {
		for _, w := range orEmpty(sp.Workloads) {
			for _, fp := range orEmpty(sp.Floorplans) {
				for _, pol := range orEmpty(sp.Policies) {
					for _, mhz := range freqs {
						s := *base.s
						parts := []string{base.label}
						if w != "" {
							s.Workload = w
							s.Programs = nil
							parts = append(parts, w)
						}
						if fp != "" {
							s.Floorplan = fp
							parts = append(parts, fp)
						}
						if pol != "" {
							s.Policy = pol
							parts = append(parts, pol)
						}
						if mhz != 0 {
							s.FreqMHz = mhz
							parts = append(parts, fmt.Sprintf("%dMHz", mhz))
						}
						name := strings.Join(parts, "/")
						s.Name = name
						// A sweep's evidence is its digests: every point
						// accumulates one regardless of the base scenario.
						s.Digest = true
						if err := lint.Lint(&s); err != nil {
							return nil, fmt.Errorf("sweep: point %s: %w", name, err)
						}
						points = append(points, Point{Index: len(points), Name: name, Scenario: &s})
					}
				}
			}
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: the grid is empty")
	}
	return points, nil
}
