package core

import (
	"fmt"
	"runtime"
	"testing"
)

// TestSteadyStateWindowAllocs pins the zero-allocation window contract at
// both loop depths: on the CI reference loop (benchLoopConfig, samples
// discarded) the windows of the last part of the run, past block
// translation warm-up, make fewer than one heap allocation each on
// average. This is the tier-1 guard of the allocs/window rows
// cmd/benchgate gates in BENCH_loop.json, over the same windows.
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
}
