package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermemu/internal/sweep"
)

// tinyWorkloads returns every workload shrunk to a few windows.
func tinyWorkloads() []workload {
	ws := append([]workload(nil), allWorkloads...)
	for i := range ws {
		ws[i].tiny = true
	}
	return ws
}

// tinyRound measures one tiny repetition and both replays of w, checking
// that the run and each replay agree on digests and work.
func tinyRound(t *testing.T, w workload, seed int64) round {
	t.Helper()
	rd := round{workload: w}
	var err error
	if rd.plain, err = w.replay(".", nil); err != nil {
		t.Fatalf("%s: replay: %v", w.name, err)
	}
	pn := &pinned{units: rd.plain.digests, cycles: rd.plain.cycles, instr: rd.plain.instr}
	if rd.rep, err = w.rep(".", rand.New(rand.NewSource(seed))); err != nil {
		t.Fatalf("%s: repetition: %v", w.name, err)
	}
	if err := rd.rep.check(w, pn); err != nil {
		t.Errorf("%s: run and replay disagree: %v", w.name, err)
	}
	tr := newTracer()
	if rd.traced, err = w.replay(".", tr); err != nil {
		t.Fatalf("%s: traced replay: %v", w.name, err)
	}
	rd.spans = tr.spans
	if err := checkDigests(rd.traced.digests, pn); err != nil {
		t.Errorf("%s: traced replay: %v", w.name, err)
	}
	return rd
}

// TestGridPointsMatchSerialRunPoint checks every point of the grid, run by
// the in-process coordinator under two dispatch orders, against the same
// point run serially through sweep.RunPoint.
func TestGridPointsMatchSerialRunPoint(t *testing.T) {
	w, _ := lookupWorkload("grid")
	w.tiny = true
	_, points, warmup, err := w.loadGrid(".")
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[string][]byte{}
	serial := map[string]unitDigest{}
	for _, pt := range points {
		key := pt.WarmupKey()
		if cuts[key] == nil {
			if cuts[key], err = sweep.CutWarmup(pt.Scenario, warmup); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sweep.RunPoint(pt.Scenario, cuts[key])
		if err != nil {
			t.Fatalf("%s: %v", pt.Name, err)
		}
		serial[pt.Name] = unitDigest{res.Digest, res.DigestRecords}
	}
	for _, seed := range []int64{1, 2} {
		r, err := w.rep(".", rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDigests(r.digests, &pinned{units: serial}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json names exactly
// the workloads and metrics the benchmark runs and emits, with the same
// units and directions.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var file, code []string
	for _, w := range doc.Workloads {
		file = append(file, w.Name)
	}
	for _, w := range allWorkloads {
		code = append(code, w.name)
	}
	for _, m := range doc.EndToEnd {
		file = append(file, "e2e "+m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, d := range e2eMetrics {
		code = append(code, "e2e "+d.name+" "+d.unit+" "+d.better)
	}
	for _, m := range doc.PerLayer {
		file = append(file, "layer "+m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, d := range layerMetrics {
		code = append(code, "layer "+d.name+" "+d.unit+" "+d.better)
	}
	if got, want := strings.Join(code, "\n"), strings.Join(file, "\n"); got != want {
		t.Errorf("code:\n%s\nBENCHMARK.json:\n%s", got, want)
	}
}

// TestTinyRounds runs one tiny round of every workload: each replay must
// end on the measured run's digests, every end-to-end metric must be a
// non-zero number and every per-layer metric a number.
func TestTinyRounds(t *testing.T) {
	for _, w := range tinyWorkloads() {
		rd := tinyRound(t, w, 1)
		e2e := e2eValues([]*repResult{rd.rep})
		for _, d := range e2eMetrics {
			v := e2e[d.name]
			if len(v) == 0 || v[0] == 0 || math.IsNaN(v[0]) || math.IsInf(v[0], 0) {
				t.Errorf("%s: end-to-end %s = %v", w.name, d.name, v)
			}
		}
		layer := layerValues(rd)
		for _, d := range layerMetrics {
			if v, ok := layer[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (emitted %v)", w.name, d.name, v, ok)
			}
		}
		if len(layer) != len(layerMetrics) {
			t.Errorf("%s: %d per-layer values for %d metrics", w.name, len(layer), len(layerMetrics))
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 6, 9},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{99, 100, 101, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"identical", tight, tight, "higher", "same"},
		{"within bound", tight, []float64{104, 105, 106, 105, 105}, "higher", "same"},
		{"faster", tight, []float64{119, 120, 121, 120, 120}, "higher", "better"},
		{"slower", tight, []float64{79, 80, 81, 80, 80}, "higher", "worse"},
		{"lower is better", tight, []float64{79, 80, 81, 80, 80}, "lower", "better"},
		{"noisy", tight, []float64{60, 140, 100, 70, 130}, "higher", "unresolved"},
		{"noisy but dominated", tight, []float64{120, 200, 160, 125, 190}, "higher", "better"},
	} {
		if got := judge(c.a, c.b, c.better, 0.1).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPinnedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	units := map[string]unitDigest{"b/x": {"00000000000000ff", 3}, "a": {"0123456789abcdef", 42}}
	if err := writePinned(dir, "w", units, 1000, 2000); err != nil {
		t.Fatal(err)
	}
	pn, err := readPinned(dir, "w")
	if err != nil {
		t.Fatal(err)
	}
	if pn.cycles != 1000 || pn.instr != 2000 || checkDigests(units, pn) != nil {
		t.Errorf("round trip: %+v", pn)
	}
	if err := os.WriteFile(pinPath(dir, "w"), []byte("a zz 1\nwork 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPinned(dir, "w"); err == nil {
		t.Error("malformed digest accepted")
	}
}
