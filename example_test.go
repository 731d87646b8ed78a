package thermemu_test

import (
	"fmt"
	"log"
	"os"

	"thermemu"
)

// Example_runWorkload emulates the MATRIX workload on a 4-core platform and
// prints the verified run summary.
func Example_runWorkload() {
	spec, err := thermemu.Matrix(4, 16, 10)
	if err != nil {
		log.Fatal(err)
	}
	res, err := thermemu.RunWorkload(thermemu.DefaultPlatform(4), spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
}

// Example_closedLoop runs the Figure 6 thermal experiment with the paper's
// threshold-DFS policy and streams each sampling window.
func Example_closedLoop() {
	cfg, err := thermemu.Fig6(400, true)
	if err != nil {
		log.Fatal(err)
	}
	out, err := thermemu.RunCoEmulation(cfg, func(s thermemu.Sample) {
		fmt.Printf("t=%.4fs T=%.1fK f=%.0fMHz\n",
			float64(s.TimePs)*1e-12, s.MaxTempK, float64(s.FreqHz)/1e6)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max %.1f K, %d DFS events\n", out.MaxTempK, out.DFSEvents)
}

// Example_remoteThermalHost splits the framework across a TCP connection:
// the device side dials a running cmd/thermserver.
func Example_remoteThermalHost() {
	tr, err := thermemu.DialThermalHost("127.0.0.1:9077")
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	cfg, err := thermemu.Fig6(400, true)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Transport = tr
	cfg.DrainPhysCycles = 1000
	out, err := thermemu.RunCoEmulation(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d windows in %d frames exchanged\n", out.Link.WindowsSent, out.Link.FramesSent+out.Link.FramesRecv)
}

// Example_table3 regenerates the paper's Table 3 comparison at reduced
// workload sizes.
func Example_table3() {
	rows, err := thermemu.Table3(thermemu.Table3Options{SkipTM: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Println(r)
	}
}

// Example_fig6CSV writes both Figure 6 curves to a CSV file.
func Example_fig6CSV() {
	data, err := thermemu.Fig6Series(thermemu.Fig6Options{})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("fig6.csv")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := data.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
}
