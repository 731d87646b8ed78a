package core

import (
	"runtime"
	"testing"
	"time"

	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

// benchLoopConfig is the CI reference closed loop: the 4-core OPB-bus
// platform from Table 3 running Matrix-TM at 100 MHz, the ARM11 floorplan
// on 28 cells, and a thermal time scale at
// which the solve stage costs about as much as a window of emulation — the
// regime the pipelined loop is built for.
//
// The threshold-DFS policy may drop the clock to 30 MHz. A window holds
// 10,000 cycles at 100 MHz and 3,000 at 30 MHz, its floor span, so depth 0
// emulates the first 3,000 cycles of each window while the previous window
// solves, and depth 1 hides the whole solve. The die
// peaks near 327 K and never reaches the policy's 350 K threshold, so
// both depths run the same 117 windows.
func benchLoopConfig(b testing.TB) Config {
	b.Helper()
	pcfg := emu.DefaultConfig(4)
	spec, err := workloads.MatrixTM(4, 8, 240, pcfg.PrivKB)
	if err != nil {
		b.Fatal(err)
	}
	host, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Platform:         pcfg,
		Workload:         spec,
		Host:             host,
		WindowPs:         100_000_000, // 0.1 ms virtual per window
		ThermalTimeScale: 5000,        // 0.1 ms window ≈ 0.5 s thermal transient
		Policy:           &tm.ThresholdDFS{HighK: 350, LowK: 340, HighFreqHz: 100e6, LowFreqHz: 30e6},
		DiscardSamples:   true,
	}
}

// delayTransport models a real Ethernet link: every frame the device
// receives costs a fixed latency. The sleep releases the processor, so the
// pipelined loop can emulate ahead while the reply is in flight even on a
// single-CPU runner.
type delayTransport struct {
	etherlink.Transport
	delay time.Duration
}

func (d delayTransport) Recv() ([]byte, error) {
	f, err := d.Transport.Recv()
	if err == nil {
		time.Sleep(d.delay)
	}
	return f, err
}

// Steady-state allocation probe of the reference loop: windows
// probeFrom..probeTo of its 117, past block-translation warm-up.
const (
	probeFrom = 60
	probeTo   = 110
)

// benchClosedLoop runs full workloads at the given pipeline depth and
// reports windows/s plus the measured steady-state allocations per window
// (sampled between two onSample callbacks in the last part of the run, so
// platform and pipeline construction and block translation are excluded).
// linkDelay > 0 routes the stats over a loopback transport whose replies
// each cost that latency.
func benchClosedLoop(b *testing.B, depth int, linkDelay time.Duration) {
	var (
		totalWindows uint64
		steadyAllocs float64
		steadySeen   bool
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchLoopConfig(b)
		cfg.PipelineDepth = depth
		var serveErr chan error
		if linkDelay > 0 {
			devTr, hostTr := etherlink.LoopbackPair(16)
			cfg.Transport = delayTransport{Transport: devTr, delay: linkDelay}
			cfg.DrainPhysCycles = 100
			hostPlan, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			serveErr = make(chan error, 1)
			go func() { serveErr <- hostPlan.Serve(hostTr) }()
		}
		windows := 0
		var m0, m1 runtime.MemStats
		res, err := Run(cfg, func(Sample) {
			windows++
			switch windows {
			case probeFrom:
				runtime.ReadMemStats(&m0)
			case probeTo:
				runtime.ReadMemStats(&m1)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if serveErr != nil {
			if err := <-serveErr; err != nil {
				b.Fatal(err)
			}
		}
		if !res.Done {
			b.Fatal("bench workload incomplete")
		}
		totalWindows += uint64(windows)
		if windows >= probeTo && !steadySeen {
			steadySeen = true
			steadyAllocs = float64(m1.Mallocs-m0.Mallocs) / (probeTo - probeFrom)
		}
	}
	b.ReportMetric(float64(totalWindows)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
	if steadySeen && linkDelay == 0 {
		b.ReportMetric(steadyAllocs, "allocs/window")
	}
}

// BenchmarkClosedLoopSerial is the in-process depth-0 baseline: each
// window's feedback applies before the next window completes, so only the
// verdict-independent first 3,000 cycles of each window overlap the solve.
func BenchmarkClosedLoopSerial(b *testing.B) { benchClosedLoop(b, 0, 0) }

// BenchmarkClosedLoopPipelined overlaps all of window N+1's emulation with
// window N's thermal solve (depth 1). The overlap needs a second processor; on a
// single-CPU runner this measures the pipeline's bookkeeping overhead
// (cmd/benchgate allows parity there, requires a win above it).
func BenchmarkClosedLoopPipelined(b *testing.B) { benchClosedLoop(b, 1, 0) }

// BenchmarkClosedLoopSerialLink sends every window over a loopback link
// whose reply costs 300 µs, the way a real Ethernet RTT does: the depth-0
// loop emulates the next window's first 3,000 cycles while a reply is in
// flight, then stalls for the rest of it once per window.
func BenchmarkClosedLoopSerialLink(b *testing.B) { benchClosedLoop(b, 0, 300*time.Microsecond) }

// BenchmarkClosedLoopPipelinedLink is the same link with a depth-4
// pipeline: queued windows coalesce into batch frames and the emulation
// runs on while replies are in flight, so the RTT is hidden even on one
// CPU. cmd/benchgate fails CI if this ever drops to the serial rate.
func BenchmarkClosedLoopPipelinedLink(b *testing.B) { benchClosedLoop(b, 4, 300*time.Microsecond) }
