package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
)

// TestClosedLoopUnderLinkFaults is the ISSUE acceptance scenario: the full
// co-emulation loop over a link dropping ~1% of the frames in each
// direction must produce bit-identical temperature samples to a clean run —
// the reliability layer heals the loss, and the freeze-don't-drop guarantee
// keeps the emulated timeline exact — while the link metrics record the
// recovery work. It runs at depth 0 (one window per frame, synchronous
// solve) and depth 2 (batched frames from the solver goroutine).
func TestClosedLoopUnderLinkFaults(t *testing.T) {
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) { linkFaultsAtDepth(t, depth) })
	}
}

func linkFaultsAtDepth(t *testing.T, depth int) {
	run := func(faulty bool) *Result {
		t.Helper()
		// A short sampling window multiplies the frame count so ~1.5% loss
		// each way is all but certain to hit several frames (the seed makes
		// it deterministic either way).
		cfg := testConfig(t, 40, nil)
		cfg.WindowPs = 2_000_000 // 2 µs virtual
		cfg.PipelineDepth = depth
		devTr, hostTr := etherlink.LoopbackPair(4)
		var dev etherlink.Transport = devTr
		if faulty {
			fcfg := etherlink.FaultConfig{Drop: 0.015}
			dev = etherlink.NewFaultTransport(devTr, 1234, fcfg, fcfg)
		}
		cfg.Transport = dev
		cfg.DrainPhysCycles = 100
		// Fast retries keep the healed run quick under test.
		cfg.Link = etherlink.ReliableConfig{RetryTimeout: 20 * time.Millisecond, MaxRetries: 500}

		hostPlan, err := NewThermalHost(floorplan.FourARM11(), 28, thermal.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() {
			serveErr <- hostPlan.ServeWith(hostTr, ServeOptions{
				RetryTimeout: 20 * time.Millisecond,
				MaxRetries:   500,
			})
		}()
		res, err := Run(cfg, nil)
		if err != nil {
			t.Fatalf("run (faulty=%v): %v", faulty, err)
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("host serve (faulty=%v): %v", faulty, err)
		}
		if !res.Done || len(res.Samples) == 0 {
			t.Fatalf("run incomplete (faulty=%v)", faulty)
		}
		return res
	}

	clean := run(false)
	faulty := run(true)

	if len(clean.Samples) != len(faulty.Samples) {
		t.Fatalf("sample counts differ: clean %d vs faulty %d",
			len(clean.Samples), len(faulty.Samples))
	}
	for i := range clean.Samples {
		c, f := clean.Samples[i], faulty.Samples[i]
		if c.Cycle != f.Cycle || c.TimePs != f.TimePs {
			t.Fatalf("sample %d timeline diverged: clean (cycle %d, %d ps) vs faulty (cycle %d, %d ps)",
				i, c.Cycle, c.TimePs, f.Cycle, f.TimePs)
		}
		// Bit-identical: the reliability layer must deliver the exact same
		// frames, so the solver integrates the exact same inputs.
		if c.MaxTempK != f.MaxTempK {
			t.Fatalf("sample %d temperature diverged under loss: clean %v vs faulty %v (delta %g)",
				i, c.MaxTempK, f.MaxTempK, math.Abs(c.MaxTempK-f.MaxTempK))
		}
		for j := range c.CompTempK {
			if c.CompTempK[j] != f.CompTempK[j] {
				t.Fatalf("sample %d comp %d temperature diverged: %v vs %v",
					i, j, c.CompTempK[j], f.CompTempK[j])
			}
		}
	}

	// The healed run actually exercised the recovery machinery.
	link := faulty.Link
	if link.Retries == 0 && link.SeqGaps == 0 && link.Resent == 0 {
		t.Errorf("1%% loss each way left no recovery trace: %+v", link)
	}
	if link.FramesSent == 0 || link.FramesRecv == 0 {
		t.Errorf("link counters empty: %+v", link)
	}
	if clean.Link.Retries != 0 || clean.Link.SeqGaps != 0 {
		t.Errorf("clean run recorded recovery work: %+v", clean.Link)
	}
}
