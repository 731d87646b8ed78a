package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/workloads"
)

// Lint validates a scenario without running it. It collects every problem
// it can find — unknown workload/policy/floorplan/interconnect names,
// non-positive platform or thermal parameters, a cell count or pipeline
// depth above core.MaxCells or core.MaxPipelineDepth, a window whose
// thermal span exceeds core.MaxWindowThermalS, programs that overrun
// private memory, shared-memory blocks that overlap each other or fall
// outside shared memory, program counts that disagree with the core count,
// unparsable fault specs — and returns them joined, so a broken file
// reports all its faults in one pass.
func (s *Scenario) Lint() error { return s.lint(nil) }

// A Linter lints scenarios and builds and checks each distinct workload
// once: scenarios whose workload sections, and the platform sizes those
// checks read, are equal share one build (assembly included) and its
// verdict. A grid's points differ mostly elsewhere, so one Linter per grid
// expansion builds each workload once. It caches only what it has linted
// and lives as long as its caller keeps it. The zero value is ready.
type Linter struct {
	workloads map[string][]error
}

// Lint is Scenario.Lint, reusing the verdict of an equal workload linted
// before.
func (l *Linter) Lint(s *Scenario) error { return s.lint(l) }

// lint is Lint with the workload checks memoised in l, when l is not nil.
func (s *Scenario) lint(l *Linter) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if s.Cores < 1 {
		fail("platform: cores must be at least 1, got %d", s.Cores)
	}
	if _, _, err := parseIC(s.IC); err != nil {
		fail("platform: %v", err)
	}
	if maxMHz := int(emu.MaxFreqHz / 1e6); s.FreqMHz < 0 || s.FreqMHz > maxMHz {
		fail("platform: freq-mhz must be between 0 and %d, got %d", maxMHz, s.FreqMHz)
	}
	sizesOK := true
	if s.PrivKB < 1 || s.PrivKB > emu.MaxPrivKB {
		fail("platform: priv-kb must be between 1 and %d, got %d", emu.MaxPrivKB, s.PrivKB)
		sizesOK = false
	}
	if s.SharedKB < 1 || s.SharedKB > emu.MaxSharedKB {
		fail("platform: shared-kb must be between 1 and %d, got %d", emu.MaxSharedKB, s.SharedKB)
		sizesOK = false
	}

	if _, ok := floorplans[s.Floorplan]; !ok {
		fail("thermal: unknown floorplan %q (want arm7 | arm11)", s.Floorplan)
	}
	if s.Cells < 1 || s.Cells > core.MaxCells {
		fail("thermal: cells must be between 1 and %d, got %d", core.MaxCells, s.Cells)
	}
	if !(s.WindowMs > 0) {
		fail("thermal: window-ms must be positive, got %v", s.WindowMs)
	}
	if !(s.Timescale > 0) {
		fail("thermal: timescale must be positive, got %v", s.Timescale)
	}
	if span := s.WindowMs * 1e-3 * s.Timescale; span > core.MaxWindowThermalS {
		fail("thermal: window-ms × timescale spans %g s of thermal time per window, above the %d s cap", span, core.MaxWindowThermalS)
	}
	if s.Pipeline < 0 || s.Pipeline > core.MaxPipelineDepth {
		fail("thermal: pipeline must be between 0 and %d, got %d", core.MaxPipelineDepth, s.Pipeline)
	}

	if _, ok := policies[s.Policy]; !ok {
		fail("tm: unknown policy %q (want none | proportional-dfs | threshold-dfs)", s.Policy)
	}

	if s.Workload != "" {
		if _, ok := workloads.Lookup(s.Workload); !ok {
			fail("workload: unknown workload %q (want %s)", s.Workload, workloads.NamesHelp())
		}
	}

	if s.Fault != "" {
		if _, err := s.FaultConfig(); err != nil {
			fail("fault: %v", err)
		}
	}

	// The deep checks need a buildable workload; skip them if the shallow
	// checks already doomed the platform parameters the build depends on.
	if s.Cores >= 1 && sizesOK {
		errs = append(errs, l.workload(s)...)
	}
	return errors.Join(errs...)
}

// workload returns the deep workload checks' findings for s: from an
// equal workload's earlier run when l holds one, and recorded in l when l
// is not nil.
func (l *Linter) workload(s *Scenario) []error {
	var key string
	if l != nil {
		key = s.workloadKey()
		if errs, ok := l.workloads[key]; ok {
			return errs
		}
	}
	var errs []error
	if err := s.lintWorkload(func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}); err != nil {
		errs = append(errs, err)
	}
	if l != nil {
		if l.workloads == nil {
			l.workloads = map[string][]error{}
		}
		l.workloads[key] = errs
	}
	return errs
}

// workloadKey identifies everything Spec and lintWorkload read: the
// workload section, the shared blocks, the core count and memory sizes,
// and, for inline programs, the scenario name their spec is named after.
func (s *Scenario) workloadKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d %d %q %d %d %d %d", s.Cores, s.PrivKB, s.SharedKB, s.Workload, s.N, s.Iters, s.Size, s.Words)
	for _, p := range s.Programs {
		fmt.Fprintf(&b, " program %d %q", p.Core, p.Src)
	}
	if len(s.Programs) > 0 {
		fmt.Fprintf(&b, " name %q", s.Name)
	}
	for _, sh := range s.Shared {
		fmt.Fprintf(&b, " shared %d %v", sh.Addr, sh.Words)
	}
	return b.String()
}

// Warnings reports lint findings that do not invalidate the scenario but
// usually mean lost evidence. The only rule so far: a [fault] spec with TM
// off and no digest — the run injects link faults, yet records neither the
// policy's reaction nor a conformance digest, so a silently-corrupted run
// is indistinguishable from a clean one.
func (s *Scenario) Warnings() []string {
	var ws []string
	if s.Fault != "" && s.Policy == "none" && !s.Digest {
		ws = append(ws, fmt.Sprintf(
			"fault spec %q with tm policy off and no digest: nothing records whether the faulty link corrupted the run; set digest = true in [scenario] (or a [tm] policy) to keep chaos-run evidence", s.Fault))
	}
	return ws
}

// lintWorkload builds the workload spec and checks its address map against
// the platform's memories: one program per core, every program image inside
// private memory, every shared block word-aligned, inside shared memory and
// non-overlapping.
func (s *Scenario) lintWorkload(fail func(string, ...any)) error {
	spec, err := s.Spec()
	if err != nil {
		return err
	}
	if len(spec.Programs) != s.Cores {
		fail("workload %q provides %d programs for a %d-core platform", spec.Name, len(spec.Programs), s.Cores)
	}
	privBytes := uint32(s.PrivKB) * 1024
	for c, im := range spec.Programs {
		if im == nil {
			fail("workload %q: core %d has no program", spec.Name, c)
			continue
		}
		if end := im.End(); end > privBytes {
			fail("workload %q: core %d program ends at %#x, beyond the %d KB private memory", spec.Name, c, end, s.PrivKB)
		}
	}

	type span struct {
		lo, hi uint32 // [lo, hi) byte range in shared memory
	}
	sharedBytes := uint32(s.SharedKB) * 1024
	spans := make([]span, 0, len(spec.Shared))
	for _, blk := range spec.Shared {
		if blk.Addr%4 != 0 {
			fail("shared block at %#x is not word-aligned", blk.Addr)
		}
		end := uint64(blk.Addr) + uint64(len(blk.Data))
		if end > uint64(sharedBytes) {
			fail("shared block [%#x, %#x) falls outside the %d KB shared memory", blk.Addr, end, s.SharedKB)
			continue
		}
		spans = append(spans, span{blk.Addr, uint32(end)})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			fail("shared blocks overlap: [%#x, %#x) collides with [%#x, %#x)",
				spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	return nil
}
