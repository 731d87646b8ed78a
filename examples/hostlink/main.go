// hostlink demonstrates the paper's HW/SW split over a real network path:
// the SW thermal library runs as a TCP server (the "host PC"), the MPSoC
// emulation connects as the device (the "FPGA board"), and the two exchange
// the framework's MAC-format frames — power statistics one way, cell
// temperatures back — while the DFS policy acts on the returned readings.
// Both endpoints run in this one process for convenience; point the device
// at a remote cmd/thermserver to split them across machines.
package main

import (
	"fmt"
	"log"
	"net"

	"thermemu"
	"thermemu/internal/etherlink"
	"thermemu/internal/tm"
)

func main() {
	// Host side: a TCP listener running the thermal service.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	fmt.Printf("thermal host listening on %s\n", l.Addr())

	serveDone := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serveDone <- err
			return
		}
		host, err := thermemu.NewThermalHost(thermemu.FourARM11(), 28)
		if err != nil {
			serveDone <- err
			return
		}
		tr := etherlink.NewTCP(conn, 64)
		defer tr.Close()
		serveDone <- host.Serve(tr)
	}()

	// Device side: the emulated MPSoC dials the host and runs Matrix-TM
	// with the threshold DFS policy driven by the temperatures the host
	// computes.
	deviceHost, err := thermemu.NewThermalHost(thermemu.FourARM11(), 28)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := thermemu.DialThermalHost(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	cfg, err := thermemu.Fig6(150, true)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Host = deviceHost // provides geometry; thermal state lives remotely
	cfg.Transport = tr
	cfg.DrainPhysCycles = 1000
	cfg.WindowPs = 500_000_000
	cfg.ThermalTimeScale = 240
	cfg.Policy = tm.NewThresholdDFS()

	res, err := thermemu.RunCoEmulation(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		log.Fatal("host:", err)
	}

	fmt.Printf("device finished: %d cycles, %d sampling windows\n", res.Cycles, len(res.Samples))
	fmt.Printf("link traffic:    %d windows out, %d answered, in %d frames out and %d in; %d congestion freezes\n",
		res.Link.WindowsSent, res.Link.WindowsAnswered, res.Link.FramesSent, res.Link.FramesRecv,
		res.Link.Congestions)
	fmt.Printf("thermal result:  max %.2f K, %d DFS events driven by remote readings\n",
		res.MaxTempK, res.DFSEvents)
}
