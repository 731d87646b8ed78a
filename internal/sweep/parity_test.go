package sweep

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
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

	out, err := RunPoints("warm", points, prefix, Options{Workers: 2, StragglerAfter: -1})
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
// dialing workers, warm-up checkpoints shipped over the wire — digests must
// still match the serial references.
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
	out, err := Serve(spec, dir, ln, Options{StragglerAfter: -1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "tcp", out, ref)
}

// TestSweepWarmupShipsOnce pins the ship-once protocol on a grid with two
// warm-up groups queued in alternating order: a single worker is sent each
// checkpoint exactly once (it is handed the held group's points first), a
// pool of four at most once per worker per group, and every digest still
// matches its serial twin fed the same checkpoint.
func TestSweepWarmupShipsOnce(t *testing.T) {
	const prefix = 8
	var points []Point
	for _, pol := range []string{"none", "threshold-dfs"} {
		for _, w := range []string{"matrix", "fir"} {
			s := smallScenario()
			s.Workload = w
			s.Policy = pol
			s.Name = w + "/" + pol
			if err := s.Lint(); err != nil {
				t.Fatal(err)
			}
			points = append(points, Point{Index: len(points), Name: s.Name, Scenario: s})
		}
	}
	ref := map[string]string{}
	cks := map[string][]byte{}
	for _, p := range points {
		key := p.WarmupKey()
		if cks[key] == nil {
			ck, err := CutWarmup(p.Scenario, prefix)
			if err != nil {
				t.Fatal(err)
			}
			cks[key] = ck
		}
		r, err := RunPoint(p.Scenario, cks[key])
		if err != nil {
			t.Fatal(err)
		}
		ref[p.Name] = r.Digest
	}
	if len(cks) != 2 {
		t.Fatalf("grid has %d warm-up groups, want 2", len(cks))
	}

	for _, workers := range []int{1, 4} {
		out, err := RunPoints("ship", points, prefix, Options{Workers: workers, StragglerAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, fmt.Sprintf("workers=%d", workers), out, ref)
		if out.WarmupGroups != len(cks) {
			t.Errorf("workers=%d: warm-up groups = %d, want %d", workers, out.WarmupGroups, len(cks))
		}
		limit := workers * out.WarmupGroups
		if workers == 1 && out.WarmupSends != out.WarmupGroups {
			t.Errorf("workers=1: %d checkpoint sends, want one per group (%d)", out.WarmupSends, out.WarmupGroups)
		}
		if out.WarmupSends < out.WarmupGroups || out.WarmupSends > limit {
			t.Errorf("workers=%d: %d checkpoint sends, want %d..%d", workers, out.WarmupSends, out.WarmupGroups, limit)
		}
	}
}
