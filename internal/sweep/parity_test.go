package sweep

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"thermemu/internal/etherlink"
)

// TestWarmupResumeDigestParity is the warm-up sharing contract for TM-off
// points: resuming the shared prefix checkpoint continues the golden
// lineage, so the final digest is bit-identical to an uninterrupted serial
// run — the saved warm-up cycles are provably free.
func TestWarmupResumeDigestParity(t *testing.T) {
	s := smallScenario()
	s.Name = "tm-off"
	cold, err := RunPoint(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = 8
	ck, err := CutWarmup(s, prefix)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunPoint(s, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warmed || warm.Forked {
		t.Fatalf("lineage flags: warmed=%v forked=%v, want warmed resume", warm.Warmed, warm.Forked)
	}
	if warm.Digest != cold.Digest || warm.DigestRecords != cold.DigestRecords {
		t.Fatalf("warm resume digest %s/%d, cold %s/%d — lineage broken",
			warm.Digest, warm.DigestRecords, cold.Digest, cold.DigestRecords)
	}
	if warm.RunSummary.Windows != cold.RunSummary.Windows-prefix {
		t.Fatalf("warm run emulated %d windows, want %d (cold %d minus the %d-window prefix)",
			warm.RunSummary.Windows, cold.RunSummary.Windows-prefix, cold.RunSummary.Windows, prefix)
	}
}

// TestWarmupForkDeterminism: a point with a TM policy forks from the shared
// prefix — a fresh digest lineage — and that branch is itself fully
// deterministic.
func TestWarmupForkDeterminism(t *testing.T) {
	s := smallScenario()
	s.Policy = "threshold-dfs"
	s.Name = "tm-on"
	const prefix = 8
	ck, err := CutWarmup(s, prefix)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := RunPoint(s, ck)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := RunPoint(s, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Forked || !f1.Warmed {
		t.Fatalf("lineage flags: warmed=%v forked=%v, want a fork", f1.Warmed, f1.Forked)
	}
	if f1.Digest != f2.Digest || f1.DigestRecords != f2.DigestRecords {
		t.Fatalf("fork lineage not deterministic: %s/%d vs %s/%d",
			f1.Digest, f1.DigestRecords, f2.Digest, f2.DigestRecords)
	}
}

func TestCutWarmupErrors(t *testing.T) {
	s := smallScenario()
	if _, err := CutWarmup(s, 0); err == nil {
		t.Error("CutWarmup accepted a zero-window prefix")
	}
	if _, err := CutWarmup(s, 1_000_000); err == nil {
		t.Error("CutWarmup accepted a prefix longer than the whole workload")
	}
}

// TestSweepWarmupGridParity runs a shared-prefix sweep end to end and checks
// each point against its serial twin fed the same checkpoint bytes — and
// the TM-off point additionally against the cold serial run (the resume
// lineage makes those identical).
func TestSweepWarmupGridParity(t *testing.T) {
	const prefix = 8
	var points []Point
	for _, pol := range []string{"none", "threshold-dfs"} {
		s := smallScenario()
		s.Policy = pol
		s.Name = "base/" + pol
		if err := s.Lint(); err != nil {
			t.Fatal(err)
		}
		points = append(points, Point{Index: len(points), Name: s.Name, Scenario: s})
	}
	if points[0].WarmupKey() != points[1].WarmupKey() {
		t.Fatal("the two policies should share one warm-up group")
	}
	ck, err := CutWarmup(points[0].Scenario, prefix)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	for _, p := range points {
		r, err := RunPoint(p.Scenario, ck)
		if err != nil {
			t.Fatal(err)
		}
		ref[p.Name] = r.Digest
	}
	coldNone, err := RunPoint(points[0].Scenario, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref["base/none"] != coldNone.Digest {
		t.Fatalf("warmed TM-off reference %s != cold serial %s", ref["base/none"], coldNone.Digest)
	}

	out, err := RunPoints("warm", points, prefix, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "warmup-grid", out, ref)
	if out.WarmupGroups != 1 {
		t.Errorf("warm-up groups = %d, want 1", out.WarmupGroups)
	}
	for _, r := range out.Results {
		if !r.Warmed {
			t.Errorf("point %s did not use the shared prefix", r.Name)
		}
		if (r.Name == "base/threshold-dfs") != r.Forked {
			t.Errorf("point %s forked=%v, want fork iff the point runs a policy", r.Name, r.Forked)
		}
	}
}

// TestSweepTCPParity drives the distributed path: a TCP coordinator, two
// dialing workers, each job cutting its warm-up prefix on its worker —
// digests must still match the serial references fed CutWarmup's bytes.
func TestSweepTCPParity(t *testing.T) {
	dir := t.TempDir()
	base := smallScenario()
	if err := os.WriteFile(filepath.Join(dir, "base.scn"), []byte(base.Render()), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec("thermemu-sweep v1\n[sweep]\nname = tcp\nwarmup-windows = 8\n[base]\nscenario = base.scn\n[axis policy]\nvalues = none, threshold-dfs\n")
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Expand(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := CutWarmup(points[0].Scenario, spec.WarmupWindows)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	for _, p := range points {
		r, err := RunPoint(p.Scenario, ck)
		if err != nil {
			t.Fatal(err)
		}
		ref[p.Name] = r.Digest
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go func(name string) {
			tr, err := etherlink.Dial(ln.Addr().String(), 256)
			if err != nil {
				t.Errorf("worker %s dial: %v", name, err)
				return
			}
			w := &Worker{Name: name}
			if err := w.Serve(tr); err != nil {
				t.Logf("worker %s: %v", name, err)
			}
		}("tcp-w" + string(rune('0'+i)))
	}
	out, err := Serve(spec, dir, ln, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "tcp", out, ref)
}

// TestSweepSplitGroupCutsPrefixPerJob covers a warm-up group larger than
// one job: 65 points on one platform split at maxJobPoints into two jobs,
// and each job cuts its own TM-off prefix in memory. Every point's digest
// and lineage flags equal a solo RunPoint fed CutWarmup's bytes.
func TestSweepSplitGroupCutsPrefixPerJob(t *testing.T) {
	const prefix = 8
	policies := []string{"none", "threshold-dfs", "proportional-dfs"}
	var points []Point
	for i := 0; i < maxJobPoints+1; i++ {
		s := smallScenario()
		s.Policy = policies[i%len(policies)]
		s.Name = fmt.Sprintf("p%02d/%s", i, s.Policy)
		if err := s.Lint(); err != nil {
			t.Fatal(err)
		}
		points = append(points, Point{Index: i, Name: s.Name, Scenario: s})
	}
	if points[0].WarmupKey() != points[len(points)-1].WarmupKey() {
		t.Fatal("the grid's points should share one warm-up key")
	}
	ck, err := CutWarmup(points[0].Scenario, prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Points of one policy run the same scenario, so one solo run per
	// policy is every such point's reference.
	solo := map[string]*Result{}
	for _, p := range points[:len(policies)] {
		if solo[p.Scenario.Policy], err = RunPoint(p.Scenario, ck); err != nil {
			t.Fatal(err)
		}
	}

	out, err := RunPoints("split", points, prefix, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.WarmupGroups != 2 {
		t.Errorf("warm-up prefixes run = %d, want 2 (one per job)", out.WarmupGroups)
	}
	if len(out.Results) != len(points) {
		t.Fatalf("%d results for %d points", len(out.Results), len(points))
	}
	for i, r := range out.Results {
		want := solo[points[i].Scenario.Policy]
		if r.Name != points[i].Name || r.Digest != want.Digest || r.DigestRecords != want.DigestRecords ||
			r.Warmed != want.Warmed || r.Forked != want.Forked {
			t.Errorf("point %s: digest %s/%d warmed=%v forked=%v, solo %s/%d warmed=%v forked=%v",
				points[i].Name, r.Digest, r.DigestRecords, r.Warmed, r.Forked,
				want.Digest, want.DigestRecords, want.Warmed, want.Forked)
		}
	}
}

// TestSweepGroupParity is the group contract end to end: every sweep
// example and bench workload grid, and the smallGrid and warmupBenchGrid
// grids, run through RunPoints — one job, and one emulation, per warm-up
// group — give each point the result a solo RunPoint of its scenario
// gives, fed CutWarmup's bytes, in everything but wall time.
func TestSweepGroupParity(t *testing.T) {
	type grid struct {
		name   string
		points []Point
		warmup int
	}
	grids := []grid{{"small", smallGrid(t), 0}, {"warmup-bench", warmupBenchGrid(t), warmupPrefixWindows}}
	examples, _ := filepath.Glob("../../examples/scenarios/*.sweep")
	workloads, _ := filepath.Glob("../../bench/workloads/*.sweep")
	for _, path := range append(examples, workloads...) {
		sp, err := LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		points, err := sp.Expand(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, grid{filepath.Base(path), points, sp.WarmupWindows})
	}
	if len(grids) < 4 {
		t.Fatalf("found %d grids, want the two test grids and every sweep file", len(grids))
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			out, err := RunPoints(g.name, g.points, g.warmup, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != len(g.points) {
				t.Fatalf("%d results for %d points", len(out.Results), len(g.points))
			}
			cks := map[string][]byte{}
			for i, p := range g.points {
				var ck []byte
				if g.warmup > 0 {
					key := p.WarmupKey()
					if cks[key] == nil {
						if cks[key], err = CutWarmup(p.Scenario, g.warmup); err != nil {
							t.Fatal(err)
						}
					}
					ck = cks[key]
				}
				want, err := RunPoint(p.Scenario, ck)
				if err != nil {
					t.Fatal(err)
				}
				want.Point, want.Name = p.Index, p.Name
				got := *out.Results[i]
				got.WallS, got.WindowsPerS = 0, 0
				want.WallS, want.WindowsPerS = 0, 0
				if !reflect.DeepEqual(got, *want) {
					t.Errorf("point %s:\ngroup %+v\nsolo  %+v", p.Name, got, *want)
				}
			}
		})
	}
}
