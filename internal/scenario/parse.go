package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a scenario from its text form. The parser is strict:
// malformed lines, unknown sections or keys, duplicate keys, truncated
// headers and out-of-range numbers are all errors — never panics — and
// every error carries its line number. Fields not present in the file keep
// the New() defaults, so Parse(Header) is exactly New() and
// load → Render → load is the identity on valid files.
func Parse(src string) (*Scenario, error) {
	s := New()
	p := &parser{s: s}
	if err := p.run(src); err != nil {
		return nil, err
	}
	return s, nil
}

type parser struct {
	s *Scenario

	section  string          // current key-value section name, "" outside
	seenSec  map[string]bool // key-value sections already closed
	seenKey  map[string]bool // section-qualified keys already set
	seenAddr map[uint32]bool // [shared] block addresses

	program     *Program // program section being accumulated, nil outside
	programAll  bool     // a [program] (all-cores) section exists
	programPer  bool     // a [program N] section exists
	programSeen map[int]bool
	workloadSec bool // a [workload] section appeared
}

func (p *parser) run(src string) error {
	p.seenSec = map[string]bool{}
	p.seenKey = map[string]bool{}
	p.seenAddr = map[uint32]bool{}
	p.programSeen = map[int]bool{}

	lines := strings.Split(src, "\n")
	header := false
	for i, raw := range lines {
		no := i + 1
		if p.program != nil && !isSection(raw) {
			p.program.Src += raw + "\n"
			continue
		}
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if !header {
			if line != Header {
				return fmt.Errorf("line %d: not a scenario file: first line must be %q, got %q", no, Header, line)
			}
			header = true
			continue
		}
		switch {
		case isSection(raw):
			if err := p.closeProgram(); err != nil {
				return fmt.Errorf("line %d: %w", no, err)
			}
			if err := p.openSection(line); err != nil {
				return fmt.Errorf("line %d: %w", no, err)
			}
		default:
			if err := p.keyValue(line); err != nil {
				return fmt.Errorf("line %d: %w", no, err)
			}
		}
	}
	if !header {
		return fmt.Errorf("empty scenario: missing %q header", Header)
	}
	if err := p.closeProgram(); err != nil {
		return err
	}
	if len(p.s.Programs) > 0 {
		if p.workloadSec {
			return fmt.Errorf("scenario has both a [workload] section and inline [program] sections")
		}
		p.s.Workload = ""
	}
	return nil
}

// isSection reports whether the raw line opens a section. Program bodies
// are terminated by any line whose first non-blank character is '[', so
// the check runs on the raw line before comment stripping.
func isSection(raw string) bool {
	t := strings.TrimSpace(raw)
	return strings.HasPrefix(t, "[")
}

func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		return s[:i]
	}
	return s
}

// kvSections lists the key-value sections and their accepted keys.
var kvSections = map[string][]string{
	"scenario": {"name", "digest"},
	"platform": {"cores", "ic", "freq-mhz", "priv-kb", "shared-kb"},
	"workload": {"name", "n", "iters", "size", "words"},
	"thermal":  {"floorplan", "cells", "window-ms", "timescale", "pipeline"},
	"tm":       {"policy"},
	"fault":    {"spec", "seed"},
	"shared":   nil, // keys are addresses
}

func (p *parser) openSection(line string) error {
	if !strings.HasSuffix(line, "]") {
		return fmt.Errorf("malformed section header %q", line)
	}
	name := strings.TrimSpace(line[1 : len(line)-1])
	if name == "program" || strings.HasPrefix(name, "program ") {
		return p.openProgram(name)
	}
	if _, ok := kvSections[name]; !ok {
		return fmt.Errorf("unknown section [%s]", name)
	}
	if p.seenSec[name] {
		return fmt.Errorf("duplicate section [%s]", name)
	}
	p.seenSec[name] = true
	p.section = name
	if name == "workload" {
		p.workloadSec = true
	}
	return nil
}

func (p *parser) openProgram(name string) error {
	core := -1
	if rest := strings.TrimSpace(strings.TrimPrefix(name, "program")); rest != "" {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return fmt.Errorf("malformed program section [%s]: want [program] or [program N]", name)
		}
		core = n
	}
	if core < 0 {
		if p.programAll {
			return fmt.Errorf("duplicate [program] section")
		}
		p.programAll = true
	} else {
		if p.programSeen[core] {
			return fmt.Errorf("duplicate [program %d] section", core)
		}
		p.programSeen[core] = true
		p.programPer = true
	}
	if p.programAll && p.programPer {
		return fmt.Errorf("mix of [program] (all cores) and per-core [program N] sections")
	}
	p.section = ""
	p.program = &Program{Core: core}
	return nil
}

func (p *parser) closeProgram() error {
	if p.program == nil {
		return nil
	}
	pr := *p.program
	p.program = nil
	pr.Src = strings.Trim(pr.Src, "\n")
	if strings.TrimSpace(pr.Src) == "" {
		if pr.Core >= 0 {
			return fmt.Errorf("[program %d] section is empty", pr.Core)
		}
		return fmt.Errorf("[program] section is empty")
	}
	p.s.Programs = append(p.s.Programs, pr)
	return nil
}

func (p *parser) keyValue(line string) error {
	if p.section == "" {
		return fmt.Errorf("%q outside any section", line)
	}
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("malformed line %q: want key = value", line)
	}
	key := strings.TrimSpace(line[:eq])
	val := strings.TrimSpace(line[eq+1:])
	if key == "" {
		return fmt.Errorf("malformed line %q: empty key", line)
	}
	if p.section == "shared" {
		return p.sharedBlock(key, val)
	}
	known := false
	for _, k := range kvSections[p.section] {
		if k == key {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown key %q in [%s]", key, p.section)
	}
	qual := p.section + "." + key
	if p.seenKey[qual] {
		return fmt.Errorf("duplicate key %q in [%s]", key, p.section)
	}
	p.seenKey[qual] = true
	if val == "" {
		return fmt.Errorf("key %q in [%s] has no value", key, p.section)
	}
	return p.assign(qual, val)
}

func (p *parser) sharedBlock(key, val string) error {
	addr64, err := strconv.ParseUint(key, 0, 32)
	if err != nil {
		return fmt.Errorf("[shared] address %q: %v", key, err)
	}
	addr := uint32(addr64)
	if p.seenAddr[addr] {
		return fmt.Errorf("duplicate [shared] block at 0x%x", addr)
	}
	p.seenAddr[addr] = true
	fields := strings.Fields(val)
	if len(fields) == 0 {
		return fmt.Errorf("[shared] block at 0x%x has no words", addr)
	}
	ws := make([]uint32, len(fields))
	for i, f := range fields {
		w, err := strconv.ParseUint(f, 0, 32)
		if err != nil {
			return fmt.Errorf("[shared] block at 0x%x word %d: %v", addr, i, err)
		}
		ws[i] = uint32(w)
	}
	p.s.Shared = append(p.s.Shared, SharedWords{Addr: addr, Words: ws})
	return nil
}

// assign routes one parsed key to its scenario field.
func (p *parser) assign(qual, val string) error {
	s := p.s
	switch qual {
	case "scenario.name":
		s.Name = val
	case "scenario.digest":
		return parseBool(&s.Digest, qual, val)
	case "platform.cores":
		return parseInt(&s.Cores, qual, val)
	case "platform.ic":
		s.IC = val
	case "platform.freq-mhz":
		return parseInt(&s.FreqMHz, qual, val)
	case "platform.priv-kb":
		return parseInt(&s.PrivKB, qual, val)
	case "platform.shared-kb":
		return parseInt(&s.SharedKB, qual, val)
	case "workload.name":
		s.Workload = val
	case "workload.n":
		return parseInt(&s.N, qual, val)
	case "workload.iters":
		return parseInt(&s.Iters, qual, val)
	case "workload.size":
		return parseInt(&s.Size, qual, val)
	case "workload.words":
		return parseInt(&s.Words, qual, val)
	case "thermal.floorplan":
		s.Floorplan = val
	case "thermal.cells":
		return parseInt(&s.Cells, qual, val)
	case "thermal.window-ms":
		return parseFloat(&s.WindowMs, qual, val)
	case "thermal.timescale":
		return parseFloat(&s.Timescale, qual, val)
	case "thermal.pipeline":
		return parseInt(&s.Pipeline, qual, val)
	case "tm.policy":
		s.Policy = val
	case "fault.spec":
		s.Fault = val
	case "fault.seed":
		n, err := strconv.ParseInt(val, 0, 64)
		if err != nil {
			return fmt.Errorf("%s: %v", qual, err)
		}
		s.FaultSeed = n
	default:
		return fmt.Errorf("unhandled key %s", qual) // unreachable: kvSections gates keys
	}
	return nil
}

func parseInt(dst *int, qual, val string) error {
	n, err := strconv.ParseInt(val, 0, 32)
	if err != nil {
		return fmt.Errorf("%s: %v", qual, err)
	}
	*dst = int(n)
	return nil
}

func parseBool(dst *bool, qual, val string) error {
	switch val {
	case "true", "on", "yes", "1":
		*dst = true
	case "false", "off", "no", "0":
		*dst = false
	default:
		return fmt.Errorf("%s: invalid boolean %q", qual, val)
	}
	return nil
}

func parseFloat(dst *float64, qual, val string) error {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("%s: %v", qual, err)
	}
	if f != f || f > 1e300 || f < -1e300 {
		return fmt.Errorf("%s: non-finite value %q", qual, val)
	}
	*dst = f
	return nil
}
