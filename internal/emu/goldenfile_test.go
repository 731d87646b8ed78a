package emu_test

// Cross-PR golden-file regression suite: the digests of the Table 3
// benchmark programs and the Figure 6 thermal run are committed under
// testdata/golden/; any behavioural drift in the emulator — one extra stall
// cycle, one different cache miss — fails CI loudly. Regenerate after an
// intentional timing-model change with:
//
//	go test ./internal/emu/ -run TestGoldenFiles -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden digest files")

type goldenCase struct {
	name     string
	workload string // registry name, also the corpus-coverage key
	params   workloads.Params
	cfg      func() emu.Config
}

func (gc goldenCase) spec() (*workloads.Spec, error) {
	p := gc.params
	p.Cores = 4
	return workloads.Build(gc.workload, p)
}

func goldenCases() []goldenCase {
	table3 := func(noc bool) func() emu.Config {
		return func() emu.Config {
			cfg := emu.DefaultConfig(4)
			cfg.CoreKinds = emu.Table3Cores(4)
			if noc {
				cfg.IC = emu.ICNoC
				cfg.NoC = emu.Table3NoC(4)
			}
			return cfg
		}
	}
	return []goldenCase{
		{"table3-matrix-bus", "matrix", workloads.Params{N: 8, Iters: 2, PrivKB: 64}, table3(false)},
		{"table3-matrix-noc", "matrix", workloads.Params{N: 8, Iters: 2, PrivKB: 64}, table3(true)},
		{"table3-dithering-bus", "dithering", workloads.Params{Size: 16}, table3(false)},
		{"table3-dithering-noc", "dithering", workloads.Params{Size: 16}, table3(true)},
		{"table3-locks-bus", "locks", workloads.Params{Iters: 16}, table3(false)},
		{"table3-membound-bus", "membound", workloads.Params{Words: 64, Iters: 4}, table3(false)},
		{"table3-fir-noc", "fir", workloads.Params{N: 8, Words: 64, Iters: 2}, table3(true)},
		{"table3-histogram-bus", "histogram", workloads.Params{N: 16, Words: 64}, table3(false)},
		{"table3-pipeline-noc", "pipeline", workloads.Params{Words: 64}, table3(true)},
		{"fig6-matrixtm-noc", "matrix-tm", workloads.Params{N: 8, Iters: 4, PrivKB: 32}, emu.Fig6Config},
	}
}

// TestGoldenCorpusCoverage pins the invariant that every registered corpus
// workload has at least one committed golden digest: registering a workload
// without adding a golden case fails here, not in review.
func TestGoldenCorpusCoverage(t *testing.T) {
	covered := map[string]bool{}
	for _, gc := range goldenCases() {
		covered[gc.workload] = true
	}
	for _, name := range workloads.Names() {
		if !covered[name] {
			t.Errorf("corpus workload %q has no golden-file case", name)
		}
	}
}

func goldenDigest(t *testing.T, gc goldenCase) *golden.Trace {
	t.Helper()
	spec, err := gc.spec()
	if err != nil {
		t.Fatal(err)
	}
	p := emu.MustNew(gc.cfg())
	loadSpec(t, p, spec)
	tr := golden.New()
	_, done := p.RunDigest(20_000_000, 1024, tr)
	if err := p.Fault(); err != nil {
		t.Fatalf("platform fault: %v", err)
	}
	if !done {
		t.Fatalf("workload %s did not finish", spec.Name)
	}
	if spec.Verify != nil {
		if err := spec.Verify(p.ReadSharedWord); err != nil {
			t.Fatalf("verification failed: %v", err)
		}
	}
	return tr
}

func TestGoldenFiles(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			tr := goldenDigest(t, gc)
			line := fmt.Sprintf("%s %d\n", tr.Hex(), tr.Len())
			path := filepath.Join("testdata", "golden", gc.name+".digest")
			if *updateGolden {
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
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if string(want) != line {
				t.Errorf("digest drift:\n  got  %s  want %s", line, want)
			}
		})
	}
}
