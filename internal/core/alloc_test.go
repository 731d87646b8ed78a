package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"thermemu/internal/tm"
)

// TestSteadyStateWindowAllocs pins the zero-allocation window contract at
// both loop depths: on the CI reference loop (benchLoopConfig, samples
// discarded) the windows of the last part of the run, past block
// translation warm-up, make fewer than one heap allocation each on
// average. This is the tier-1 guard of the allocs/window rows
// cmd/benchgate gates in BENCH_loop.json, over the same windows. A group
// of three members over one platform holds the same bound per member
// window.
func TestSteadyStateWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const from, to = probeFrom, probeTo
	for _, depth := range []int{0, 1} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := benchLoopConfig(t)
			cfg.PipelineDepth = depth
			windows := 0
			var m0, m1 runtime.MemStats
			if _, err := Run(cfg, func(Sample) {
				windows++
				switch windows {
				case from:
					runtime.ReadMemStats(&m0)
				case to:
					runtime.ReadMemStats(&m1)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if windows < to {
				t.Fatalf("loop ran %d windows, the probe needs %d", windows, to)
			}
			per := float64(m1.Mallocs-m0.Mallocs) / (to - from)
			t.Logf("%.3f allocs/window over windows %d..%d", per, from, to)
			if per >= 1 {
				t.Errorf("steady state: %.2f allocs/window, want < 1", per)
			}
		})
	}
	t.Run("group3", func(t *testing.T) {
		// The reference loop (a 3,000-cycle floor span), the same loop with
		// no policy (whole-window spans) and with a 50 MHz floor (5,000
		// cycles): each member stops the shared platform at its own points.
		const members = 3
		cfgs := make([]Config, members)
		for i := range cfgs {
			cfgs[i] = benchLoopConfig(t)
		}
		cfgs[1].Policy = nil
		cfgs[2].Policy = &tm.ThresholdDFS{HighK: 350, LowK: 340, HighFreqHz: 100e6, LowFreqHz: 50e6}
		windows := make([]int, members)
		var at [2][]int
		var m0, m1 runtime.MemStats
		callbacks := make([]func(Sample), members)
		for i := range cfgs {
			callbacks[i] = func(Sample) {
				windows[i]++
				if i != 0 {
					return
				}
				switch windows[0] {
				case from:
					at[0] = append([]int(nil), windows...)
					runtime.ReadMemStats(&m0)
				case to:
					runtime.ReadMemStats(&m1)
					at[1] = append([]int(nil), windows...)
				}
			}
		}
		_, errs := RunGroup(cfgs, callbacks)
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if at[1] == nil {
			t.Fatalf("member 0 ran %d windows, the probe needs %d", windows[0], to)
		}
		memberWindows := 0
		for i := range windows {
			memberWindows += at[1][i] - at[0][i]
		}
		per := float64(m1.Mallocs-m0.Mallocs) / float64(memberWindows)
		t.Logf("%.3f allocs/window/member over %d member windows", per, memberWindows)
		if per >= 1 {
			t.Errorf("steady state: %.2f allocs/window/member, want < 1", per)
		}
	})
}
