// noc_exploration is the architecture-exploration use case from the paper's
// introduction: sweep interconnect alternatives (OPB, PLB, the custom
// exploration bus with different arbitration policies, and NoC topologies)
// under the shared-memory-heavy DITHERING workload, and compare cycle
// counts, stall behaviour and interconnect statistics — the kind of
// early-design-stage tuning the framework's speed makes practical.
package main

import (
	"fmt"
	"log"

	"thermemu"
	"thermemu/internal/bus"
	"thermemu/internal/emu"
	"thermemu/internal/noc"
	"thermemu/internal/workloads"
)

const cores = 4

func main() {
	spec, err := workloads.Dithering(cores, 32)
	if err != nil {
		log.Fatal(err)
	}

	type variant struct {
		name string
		cfg  thermemu.PlatformConfig
	}
	custom := func(arb bus.Arbitration, width int) thermemu.PlatformConfig {
		cfg := thermemu.DefaultPlatform(cores)
		cfg.IC = emu.ICBusCustom
		bc := bus.Custom(cores, arb, width)
		cfg.Bus = &bc
		return cfg
	}
	nocCfg := func(spec *emu.NoCSpec) thermemu.PlatformConfig {
		cfg := thermemu.DefaultPlatform(cores)
		cfg.IC = emu.ICNoC
		cfg.NoC = spec
		return cfg
	}
	mesh := noc.Mesh(2, 2)
	for c := 0; c < cores; c++ {
		mesh.Attach(c, c)
	}
	plb := thermemu.DefaultPlatform(cores)
	plb.IC = emu.ICBusPLB

	variants := []variant{
		{"OPB (32-bit, round-robin)", thermemu.DefaultPlatform(cores)},
		{"PLB (64-bit, fixed-prio)", plb},
		{"custom bus, round-robin", custom(bus.RoundRobin, 32)},
		{"custom bus, TDMA", custom(bus.TDMA, 32)},
		{"custom bus, 64-bit RR", custom(bus.RoundRobin, 64)},
		{"NoC 2 switches (Table 3)", nocCfg(emu.Table3NoC(cores))},
		{"NoC 2x2 mesh", nocCfg(&emu.NoCSpec{Topo: mesh, Cfg: noc.DefaultConfig(), MemSwitch: 0})},
	}

	fmt.Printf("DITHERING, %d cores, 2 x 32x32 images, shared memory traffic:\n\n", cores)
	fmt.Printf("%-28s %12s %10s %14s %s\n", "interconnect", "cycles", "wall", "stall cycles", "interconnect stats")
	var baseline uint64
	for i, v := range variants {
		p, err := emu.New(v.cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.LoadWorkload(spec); err != nil {
			log.Fatal(err)
		}
		rs, err := thermemu.RunWorkload(v.cfg, spec)
		if err != nil {
			log.Fatal(err)
		}
		// Re-run on the instantiated platform for the detailed stats.
		if _, done := p.Run(1 << 62); !done {
			log.Fatalf("%s: did not finish", v.name)
		}
		if err := spec.Verify(p.ReadSharedWord); err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		var stalls uint64
		for _, c := range p.Cores {
			stalls += c.Stats().StallCycles
		}
		var icStats string
		if p.Bus != nil {
			s := p.Bus.Stats()
			icStats = fmt.Sprintf("%d txns, %d wait cyc, util %.0f%%",
				s.Transactions, s.WaitCycles, 100*p.Bus.Utilisation(p.VPCM.Cycle()))
		} else {
			s := p.Net.Stats()
			icStats = fmt.Sprintf("%d pkts, %d flits, %d wait cyc",
				s.Packets, s.Flits, s.WaitCycles)
		}
		mark := ""
		if i == 0 {
			baseline = rs.Cycles
		} else if rs.Cycles < baseline {
			mark = " (faster)"
		}
		fmt.Printf("%-28s %12d %10v %14d %s%s\n",
			v.name, rs.Cycles, rs.Wall.Round(100_000), stalls, icStats, mark)
	}
	fmt.Println("\nAll variants produce bit-identical dithered images (verified against")
	fmt.Println("the reference implementation); only the timing differs.")
}
