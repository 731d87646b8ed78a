package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermemu/internal/scenario"
)

const specAll = `thermemu-sweep v1
# full grid over the default scenario
[sweep]
name = all-axes
warmup-windows = 8

[axis workload]
values = matrix, fir

[axis policy]
values = none, threshold-dfs

[axis freq-mhz]
values = 100, 200
`

func TestParseSpecFull(t *testing.T) {
	sp, err := ParseSpec(specAll)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "all-axes" || sp.WarmupWindows != 8 {
		t.Fatalf("header fields: %+v", sp)
	}
	if len(sp.Workloads) != 2 || sp.Workloads[1] != "fir" {
		t.Fatalf("workload axis: %v", sp.Workloads)
	}
	if len(sp.Policies) != 2 || len(sp.FreqsMHz) != 2 || sp.FreqsMHz[1] != 200 {
		t.Fatalf("axes: %+v", sp)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing-header", "[sweep]\nname = x\n", "first line must be"},
		{"empty", "\n\n", "missing"},
		{"unknown-section", "thermemu-sweep v1\n[grid]\n", "unknown section"},
		{"unknown-axis", "thermemu-sweep v1\n[axis voltage]\n", "unknown axis"},
		{"unknown-key", "thermemu-sweep v1\n[sweep]\nvolts = 3\n", "unknown key"},
		{"duplicate-section", "thermemu-sweep v1\n[sweep]\n[sweep]\n", "duplicate section"},
		{"duplicate-key", "thermemu-sweep v1\n[sweep]\nname = a\nname = b\n", "duplicate key"},
		{"orphan-line", "thermemu-sweep v1\nname = a\n", "outside any section"},
		{"bad-warmup", "thermemu-sweep v1\n[sweep]\nwarmup-windows = -3\n", "non-negative"},
		{"bad-freq", "thermemu-sweep v1\n[axis freq-mhz]\nvalues = 100, fast\n", "positive MHz"},
		{"no-value", "thermemu-sweep v1\n[sweep]\nname =\n", "has no value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSpec = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestExpandGrid(t *testing.T) {
	sp, err := ParseSpec(specAll)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sp.Expand(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*2*2 {
		t.Fatalf("grid size %d, want 8", len(points))
	}
	names := map[string]bool{}
	for _, p := range points {
		if names[p.Name] {
			t.Fatalf("duplicate point name %q", p.Name)
		}
		names[p.Name] = true
		if !p.Scenario.Digest {
			t.Errorf("point %s: digest not forced on", p.Name)
		}
		if p.Scenario.Name != p.Name {
			t.Errorf("point %s: scenario name %q", p.Name, p.Scenario.Name)
		}
	}
	if !names["default/fir/threshold-dfs/200MHz"] {
		t.Fatalf("expected point name missing; got %v", names)
	}
}

func TestExpandRejectsBadPoint(t *testing.T) {
	sp, err := ParseSpec("thermemu-sweep v1\n[axis workload]\nvalues = matrix, no-such-workload\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sp.Expand(".")
	if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("Expand = %v, want the broken point's coordinates", err)
	}
}

func TestExpandRejectsBaseAndScenarioAxis(t *testing.T) {
	sp := &Spec{Base: "a.scn", Scenarios: []string{"b.scn"}}
	if _, err := sp.Expand("."); err == nil {
		t.Fatal("Expand accepted both [base] and [axis scenario]")
	}
}

func TestExpandScenarioAxis(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []struct{ name, body string }{
		{"small.scn", "thermemu-scenario v1\n[platform]\ncores = 2\n"},
		{"big.scn", "thermemu-scenario v1\n[platform]\ncores = 8\n"},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := ParseSpec("thermemu-sweep v1\n[axis scenario]\nvalues = small.scn, big.scn\n[axis policy]\nvalues = none, threshold-dfs\n")
	if err != nil {
		t.Fatal(err)
	}
	points, err := sp.Expand(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("grid size %d, want 4", len(points))
	}
	if points[0].Name != "small/none" || points[0].Scenario.Cores != 2 {
		t.Fatalf("point 0: %q cores %d", points[0].Name, points[0].Scenario.Cores)
	}
	if points[3].Name != "big/threshold-dfs" || points[3].Scenario.Cores != 8 {
		t.Fatalf("point 3: %q cores %d", points[3].Name, points[3].Scenario.Cores)
	}
}

// TestWarmupKeyGroupsPolicies: points that differ only in TM policy share a
// warm-up prefix; points with different workloads or frequencies do not.
func TestWarmupKeyGroupsPolicies(t *testing.T) {
	sp, err := ParseSpec(specAll)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sp.Expand(".")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]map[string]bool{} // warmup key -> set of point names
	for i := range points {
		k := points[i].WarmupKey()
		if keys[k] == nil {
			keys[k] = map[string]bool{}
		}
		keys[k][points[i].Name] = true
	}
	// 2 workloads x 2 freqs = 4 platform groups, each covering 2 policies.
	if len(keys) != 4 {
		t.Fatalf("%d warm-up groups, want 4: %v", len(keys), keys)
	}
	for k, group := range keys {
		if len(group) != 2 {
			t.Errorf("group %q has %d points, want 2 (the two policies)", k, len(group))
		}
	}
}

// TestLoadSpecCapsFileSize: a spec file longer than scenario.MaxFileBytes
// is refused; one at the limit parses.
func TestLoadSpecCapsFileSize(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{scenario.MaxFileBytes, scenario.MaxFileBytes + 1} {
		comment := "#" + strings.Repeat("x", 98) + "\n"
		src := specAll + strings.Repeat(comment, (n-len(specAll))/len(comment))
		src += strings.Repeat("\n", n-len(src))
		path := filepath.Join(dir, "big.sweep")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSpec(path)
		if n == scenario.MaxFileBytes && err != nil {
			t.Errorf("%d-byte spec: %v", n, err)
		}
		if n > scenario.MaxFileBytes && (err == nil || !strings.Contains(err.Error(), "exceeds")) {
			t.Errorf("%d-byte spec: err = %v, want a size error", n, err)
		}
	}
}
