package emu

import (
	"fmt"
	"strings"
)

// Report renders the "detailed cycle-accurate report" of the platform's
// count-logging statistics — the deliverable the paper's designers extract
// from a run: processing cores, memory subsystem and interconnection
// mechanisms, the three architectural levels of Section 1.
func (p *Platform) Report() string {
	var b strings.Builder
	// About 830 bytes plus 240 per core: sized once instead of grown.
	b.Grow(1024 + 256*len(p.Cores))
	cyc := p.VPCM.Cycle()
	fmt.Fprintf(&b, "platform: %d x %s @ %d MHz, %s interconnect, %d cycles (%.6f s virtual)\n",
		len(p.Cores), p.Cfg.CoreKind, p.VPCM.Frequency()/1e6, p.Cfg.IC, cyc, p.VPCM.Time())

	fmt.Fprintf(&b, "\nprocessing cores:\n")
	fmt.Fprintf(&b, "  %-6s %12s %6s %7s %7s %7s %10s %10s\n",
		"core", "instr", "IPC", "active", "stall", "idle", "loads", "stores")
	for i, c := range p.Cores {
		st := c.Stats()
		total := st.Cycles()
		pct := func(v uint64) float64 {
			if total == 0 {
				return 0
			}
			return 100 * float64(v) / float64(total)
		}
		ipc := 0.0
		if total > 0 {
			ipc = float64(st.Instructions) / float64(total)
		}
		fmt.Fprintf(&b, "  %-6d %12d %6.3f %6.1f%% %6.1f%% %6.1f%% %10d %10d\n",
			i, st.Instructions, ipc, pct(st.ActiveCycles), pct(st.StallCycles),
			pct(st.IdleCycles), st.Loads, st.Stores)
	}

	fmt.Fprintf(&b, "\nmemory subsystem:\n")
	fmt.Fprintf(&b, "  %-10s %12s %9s %12s %12s\n", "cache", "accesses", "hit rate", "evictions", "writebacks")
	for i, ctl := range p.Ctrls {
		if ic := ctl.ICache(); ic != nil {
			s := ic.Stats()
			fmt.Fprintf(&b, "  icache%-4d %12d %8.1f%% %12d %12d\n",
				i, s.Accesses(), 100*(1-s.MissRate()), s.Evictions, s.Writebacks)
		}
		if dc := ctl.DCache(); dc != nil {
			s := dc.Stats()
			fmt.Fprintf(&b, "  dcache%-4d %12d %8.1f%% %12d %12d\n",
				i, s.Accesses(), 100*(1-s.MissRate()), s.Evictions, s.Writebacks)
		}
	}
	fmt.Fprintf(&b, "  %-10s %12s %12s %12s %12s\n", "controller", "fetches", "private r/w", "shared r/w", "stall cyc")
	for i, ctl := range p.Ctrls {
		s := ctl.Stats()
		fmt.Fprintf(&b, "  memctl%-4d %12d %5d/%-6d %5d/%-6d %12d\n",
			i, s.Fetches, s.PrivateReads, s.PrivateWrits, s.SharedReads, s.SharedWrits, s.StallCycles)
	}
	sm := p.Shared.Stats()
	fmt.Fprintf(&b, "  shared memory: %d reads, %d writes\n", sm.Reads, sm.Writes)

	fmt.Fprintf(&b, "\ninterconnect:\n")
	switch {
	case p.Bus != nil:
		s := p.Bus.Stats()
		fmt.Fprintf(&b, "  %s bus: %d transactions (%d r / %d w), %d beats, %d wait cycles, %.1f%% utilised\n",
			p.Bus.Name(), s.Transactions, s.Reads, s.Writes, s.BeatsCarried,
			s.WaitCycles, 100*p.Bus.Utilisation(cyc))
	case p.Net != nil:
		s := p.Net.Stats()
		fmt.Fprintf(&b, "  %s NoC: %d packets, %d flits (%d OCP reads, %d OCP writes), %d hops, %d wait cycles\n",
			p.Net.Topology().Name, s.Packets, s.Flits, s.OCPReads, s.OCPWrites,
			s.HopsTraveled, s.WaitCycles)
		for i, lu := range p.Net.LinkUtilisation() {
			if i >= 3 || lu.Cycles == 0 {
				break
			}
			fmt.Fprintf(&b, "    busiest link %d->%d: %d busy cycles\n",
				lu.Link.From, lu.Link.To, lu.Cycles)
		}
	}

	fmt.Fprintf(&b, "\nvirtual platform clock:\n")
	fmt.Fprintf(&b, "  %s, %d DFS events, %d suppression cycles\n",
		p.VPCM, p.VPCM.DFSEvents(), p.VPCM.SuppressionCycles())
	if p.Hub.Len() > 0 {
		enabled := 0
		for i := 0; i < p.Hub.Len(); i++ {
			if p.Hub.Get(i).Enabled() {
				enabled++
			}
		}
		fmt.Fprintf(&b, "  sniffers: %d registered (%d enabled)\n", p.Hub.Len(), enabled)
	}
	return b.String()
}
