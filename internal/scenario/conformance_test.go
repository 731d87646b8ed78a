package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"thermemu/internal/core"
	"thermemu/internal/golden"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden scenario digest files")

// scenariosDir is the committed example corpus, relative to this package.
const scenariosDir = "../../examples/scenarios"

// conformanceMaxCycles caps runaway scenarios; every committed example
// halts far below it.
const conformanceMaxCycles = 20_000_000

func exampleScenarios(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(scenariosDir, "*.scn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no example scenarios under %s", scenariosDir)
	}
	sort.Strings(paths)
	return paths
}

// TestScenarioConformance lints and runs every committed example scenario
// end to end — platform, workload, thermal loop, policy — and holds its
// golden digest to the committed value. Regenerate after an intentional
// behavioural change with:
//
//	go test ./internal/scenario/ -run TestScenarioConformance -update
func TestScenarioConformance(t *testing.T) {
	for _, path := range exampleScenarios(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".scn")
		t.Run(name, func(t *testing.T) {
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.CoEmulation()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Golden = golden.New()
			cfg.MaxCycles = conformanceMaxCycles
			res, err := core.Run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatalf("scenario did not halt within %d cycles", uint64(conformanceMaxCycles))
			}
			line := fmt.Sprintf("%s %d\n", cfg.Golden.Hex(), cfg.Golden.Len())
			goldenPath := filepath.Join("testdata", "golden", name+".digest")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(line), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s: %s", goldenPath, line)
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if string(want) != line {
				t.Errorf("scenario digest drift:\n  got  %s  want %s", line, want)
			}
		})
	}
}

// TestScenarioExamplesRoundTrip holds every committed example to the
// canonical round-trip invariant — the files stay loadable through a
// render/reparse cycle with nothing lost.
func TestScenarioExamplesRoundTrip(t *testing.T) {
	for _, path := range exampleScenarios(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		s2, err := Parse(s1.Render())
		if err != nil {
			t.Fatalf("%s: reparse of render: %v", path, err)
		}
		if s1.Render() != s2.Render() {
			t.Errorf("%s: render is not a fixed point", path)
		}
	}
}
