package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Render writes the scenario in canonical form: every key written
// explicitly (defaults included), sections in a fixed order, numbers in
// their shortest form and shared words in hex. Parse(s.Render()) is
// guaranteed to reproduce s for any scenario that came out of Parse, which
// is the round-trip invariant the fuzzer holds the parser to.
func (s *Scenario) Render() string {
	var b strings.Builder
	b.WriteString(Header + "\n")
	if s.Name != "" || s.Digest {
		b.WriteString("\n[scenario]\n")
		if s.Name != "" {
			fmt.Fprintf(&b, "name = %s\n", s.Name)
		}
		if s.Digest {
			fmt.Fprintf(&b, "digest = %t\n", s.Digest)
		}
	}
	b.WriteString("\n[platform]\n")
	fmt.Fprintf(&b, "cores = %d\n", s.Cores)
	fmt.Fprintf(&b, "ic = %s\n", s.IC)
	fmt.Fprintf(&b, "freq-mhz = %d\n", s.FreqMHz)
	fmt.Fprintf(&b, "priv-kb = %d\n", s.PrivKB)
	fmt.Fprintf(&b, "shared-kb = %d\n", s.SharedKB)
	if len(s.Programs) == 0 {
		b.WriteString("\n[workload]\n")
		fmt.Fprintf(&b, "name = %s\n", s.Workload)
		fmt.Fprintf(&b, "n = %d\n", s.N)
		fmt.Fprintf(&b, "iters = %d\n", s.Iters)
		fmt.Fprintf(&b, "size = %d\n", s.Size)
		fmt.Fprintf(&b, "words = %d\n", s.Words)
	}
	for _, p := range s.Programs {
		if p.Core < 0 {
			b.WriteString("\n[program]\n")
		} else {
			fmt.Fprintf(&b, "\n[program %d]\n", p.Core)
		}
		b.WriteString(strings.Trim(p.Src, "\n") + "\n")
	}
	if len(s.Shared) > 0 {
		b.WriteString("\n[shared]\n")
		for _, blk := range s.Shared {
			fmt.Fprintf(&b, "0x%x =", blk.Addr)
			for _, w := range blk.Words {
				fmt.Fprintf(&b, " 0x%x", w)
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("\n[thermal]\n")
	fmt.Fprintf(&b, "floorplan = %s\n", s.Floorplan)
	fmt.Fprintf(&b, "cells = %d\n", s.Cells)
	fmt.Fprintf(&b, "window-ms = %s\n", strconv.FormatFloat(s.WindowMs, 'g', -1, 64))
	fmt.Fprintf(&b, "timescale = %s\n", strconv.FormatFloat(s.Timescale, 'g', -1, 64))
	fmt.Fprintf(&b, "pipeline = %d\n", s.Pipeline)
	b.WriteString("\n[tm]\n")
	fmt.Fprintf(&b, "policy = %s\n", s.Policy)
	if s.Fault != "" || s.FaultSeed != 1 {
		b.WriteString("\n[fault]\n")
		if s.Fault != "" {
			fmt.Fprintf(&b, "spec = %s\n", s.Fault)
		}
		fmt.Fprintf(&b, "seed = %d\n", s.FaultSeed)
	}
	return b.String()
}
