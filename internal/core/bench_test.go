package core

import (
	"runtime"
	"testing"
	"time"

	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
	"thermemu/internal/workloads"
)

// benchLoopConfig is the CI reference closed loop: the 4-core OPB-bus
// platform from Table 3 running Matrix-TM, the ARM11 floorplan on 28 cells
// with the sharded solver enabled, and a thermal time scale heavy enough
// that the solve stage costs about as much as a window of emulation — the
// regime the pipelined loop is built for.
func benchLoopConfig(b testing.TB) Config {
	b.Helper()
	pcfg := emu.DefaultConfig(4)
	spec, err := workloads.MatrixTM(4, 8, 120, pcfg.PrivKB)
	if err != nil {
		b.Fatal(err)
	}
	opt := thermal.DefaultOptions()
	opt.Workers = 4
	host, err := NewThermalHost(floorplan.FourARM11(), 28, opt)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Platform:         pcfg,
		Workload:         spec,
		Host:             host,
		WindowPs:         100_000_000, // 0.1 ms virtual per window
		ThermalTimeScale: 40000,       // 0.1 ms window ≈ 4 s thermal transient
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

// benchClosedLoop runs full workloads at the given pipeline depth and
// reports windows/s plus the measured steady-state allocations per window
// (sampled between two onSample callbacks well past warm-up, so platform
// and pipeline construction are excluded). linkDelay > 0 routes the stats
// over a loopback transport whose replies each cost that latency.
func benchClosedLoop(b *testing.B, depth int, linkDelay time.Duration) {
	const (
		warmupWindow = 8  // first window of the steady-state probe
		probeWindows = 32 // windows between the two MemStats samples
	)
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
			opt := thermal.DefaultOptions()
			opt.Workers = 4
			hostPlan, err := NewThermalHost(floorplan.FourARM11(), 28, opt)
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
			case warmupWindow:
				runtime.ReadMemStats(&m0)
			case warmupWindow + probeWindows:
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
		if windows >= warmupWindow+probeWindows && !steadySeen {
			steadySeen = true
			steadyAllocs = float64(m1.Mallocs-m0.Mallocs) / probeWindows
		}
	}
	b.ReportMetric(float64(totalWindows)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
	if steadySeen && linkDelay == 0 {
		b.ReportMetric(steadyAllocs, "allocs/window")
	}
}

// BenchmarkClosedLoopSerial is the in-process depth-0 baseline: emulate, solve,
// and feed back strictly in sequence.
func BenchmarkClosedLoopSerial(b *testing.B) { benchClosedLoop(b, 0, 0) }

// BenchmarkClosedLoopPipelined overlaps window N+1's emulation with window
// N's thermal solve (depth 1). The overlap needs a second processor; on a
// single-CPU runner this measures the pipeline's bookkeeping overhead
// (cmd/benchgate allows parity there, requires a win above it).
func BenchmarkClosedLoopPipelined(b *testing.B) { benchClosedLoop(b, 1, 0) }

// BenchmarkClosedLoopSerialLink sends every window over a loopback link
// whose reply costs 300 µs, the way a real Ethernet RTT does: the depth-0
// loop stalls for it once per window.
func BenchmarkClosedLoopSerialLink(b *testing.B) { benchClosedLoop(b, 0, 300*time.Microsecond) }

// BenchmarkClosedLoopPipelinedLink is the same link with a depth-4
// pipeline: queued windows coalesce into batch frames and the emulation
// runs on while replies are in flight, so the RTT is hidden even on one
// CPU. cmd/benchgate fails CI if this ever drops to the serial rate.
func BenchmarkClosedLoopPipelinedLink(b *testing.B) { benchClosedLoop(b, 4, 300*time.Microsecond) }
