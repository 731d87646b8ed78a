package checkpoint_test

// The TMCK byte encoding is pinned: a fixed warmed platform (a golden
// workload stopped mid-run, caches populated) must encode to exactly the
// committed length and FNV-64 of its bytes. A change to any component's
// state layout — cache line order, field order, a new counter — moves the
// pin, so on-disk compatibility never drifts silently.
// Regenerate after an intentional format change with:
//
//	go test ./internal/checkpoint/ -run TestEncodingPinned -update

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/workloads"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/*.sum encoding pins")

func TestEncodingPinned(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		params   workloads.Params
		cfg      func() emu.Config
		cycles   uint64 // mid-run capture point
	}{
		{"fig6-matrixtm-noc", "matrix-tm", workloads.Params{N: 8, Iters: 4, PrivKB: 32},
			emu.Fig6Config, 10_000},
		{"table3-matrix-bus", "matrix", workloads.Params{N: 8, Iters: 2, PrivKB: 64},
			func() emu.Config {
				cfg := emu.DefaultConfig(4)
				cfg.CoreKinds = emu.Table3Cores(4)
				return cfg
			}, 5_000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.params
			p.Cores = 4
			spec, err := workloads.Build(tc.workload, p)
			if err != nil {
				t.Fatal(err)
			}
			plat := emu.MustNew(tc.cfg())
			loadSpec(t, plat, spec)
			plat.Step(tc.cycles)
			if plat.AllHalted() {
				t.Fatalf("capture point %d is past the end of the run", tc.cycles)
			}
			data := checkpoint.Encode(checkpoint.FromPlatform(plat))
			h := fnv.New64a()
			h.Write(data)
			line := fmt.Sprintf("%016x %d\n", h.Sum64(), len(data))
			path := filepath.Join("testdata", tc.name+".sum")
			if *updatePins {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s: %s", path, line)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing encoding pin (regenerate with -update): %v", err)
			}
			if string(want) != line {
				t.Errorf("TMCK encoding drift:\n  got  %s  want %s", line, want)
			}
		})
	}
}
