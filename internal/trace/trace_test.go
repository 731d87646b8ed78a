package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

// runSamples produces a small real co-emulation sample series.
func runSamples(t *testing.T) (*floorplan.Floorplan, []core.Sample) {
	t.Helper()
	fp, res := runResult(t)
	return fp, res.Samples
}

// runResult produces a small real co-emulation result.
func runResult(t *testing.T) (*floorplan.Floorplan, *core.Result) {
	t.Helper()
	pcfg := emu.DefaultConfig(2)
	pcfg.FreqHz = 500e6
	spec, err := workloads.Matrix(2, 8, 12, pcfg.PrivKB)
	if err != nil {
		t.Fatal(err)
	}
	fp := floorplan.FourARM11()
	host, err := core.NewThermalHost(fp, 28, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Platform: pcfg, Workload: spec, Host: host,
		WindowPs: 10_000_000, ThermalTimeScale: 5000,
		Policy: &tm.ThresholdDFS{HighK: 305, LowK: 303, HighFreqHz: 500e6, LowFreqHz: 100e6},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 2 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	return fp, res
}

func TestWriteSamplesVCD(t *testing.T) {
	fp, samples := runSamples(t)
	var buf bytes.Buffer
	if err := WriteSamplesVCD(&buf, fp, samples); err != nil {
		t.Fatal(err)
	}
	vcd := buf.String()
	for _, want := range []string{
		"$timescale 1ps $end",
		"$var real 64", "freq_mhz", "max_temp_k", "temp_core0_k", "power_core0_w",
		"$var wire 1", "throttled",
		"$enddefinitions $end",
		"#", // at least one timestamp
	} {
		if !strings.Contains(vcd, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	// Timestamps are monotone.
	lastTime := int64(-1)
	for _, line := range strings.Split(vcd, "\n") {
		if strings.HasPrefix(line, "#") {
			var ts int64
			if _, err := fmtSscan(line[1:], &ts); err != nil {
				t.Fatalf("bad timestamp line %q", line)
			}
			if ts <= lastTime {
				t.Fatalf("non-monotone timestamp %d after %d", ts, lastTime)
			}
			lastTime = ts
		}
	}
	// Real value change lines reference declared ids.
	if !strings.Contains(vcd, "r") {
		t.Error("no real value changes")
	}
}

func fmtSscan(s string, v *int64) (int, error) {
	n := 0
	var x int64
	for ; n < len(s) && s[n] >= '0' && s[n] <= '9'; n++ {
		x = x*10 + int64(s[n]-'0')
	}
	if n == 0 {
		return 0, strings.NewReader("").UnreadByte()
	}
	*v = x
	return n, nil
}

func TestVCDDedupsUnchangedValues(t *testing.T) {
	var buf bytes.Buffer
	v := NewVCD(&buf)
	v.AddReal("x")
	v.Time(1)
	v.SetReal("x", 5)
	v.Time(2)
	v.SetReal("x", 5) // unchanged: no line
	v.Time(3)
	v.SetReal("x", 6)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "r5 "); got != 1 {
		t.Errorf("value 5 emitted %d times", got)
	}
	if got := strings.Count(buf.String(), "r6 "); got != 1 {
		t.Errorf("value 6 emitted %d times", got)
	}
}

func TestVCDErrors(t *testing.T) {
	v := NewVCD(&bytes.Buffer{})
	v.AddReal("a")
	v.AddReal("a") // duplicate
	if v.Err() == nil {
		t.Error("duplicate variable accepted")
	}
	v2 := NewVCD(&bytes.Buffer{})
	v2.AddReal("a")
	v2.Time(0)
	v2.AddReal("late")
	if v2.Err() == nil {
		t.Error("late declaration accepted")
	}
	v3 := NewVCD(&bytes.Buffer{})
	v3.Time(0)
	v3.SetReal("ghost", 1)
	if v3.Err() == nil {
		t.Error("undeclared variable accepted")
	}
}

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
	}
}

// runDoc is what a consumer of the -json document reads back: the
// floorplan name and each window's maximum and per-component temperatures.
type runDoc struct {
	Floorplan string `json:"floorplan"`
	Samples   []struct {
		MaxTempK float64            `json:"max_temp_k"`
		TempK    map[string]float64 `json:"temp_k"`
	} `json:"samples"`
}

// TestSamplesJSONRoundTrip checks the sample series of the run document:
// one entry per window, keyed by component name.
func TestSamplesJSONRoundTrip(t *testing.T) {
	fp, res := runResult(t)
	var buf bytes.Buffer
	if err := WriteRunJSON(&buf, fp, NewRunSummary("matrix", fp, res, len(res.Samples), nil), res.Samples); err != nil {
		t.Fatal(err)
	}
	var doc runDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Floorplan != fp.Name {
		t.Errorf("floorplan name = %q", doc.Floorplan)
	}
	if len(doc.Samples) != len(res.Samples) {
		t.Fatalf("samples = %d, want %d", len(doc.Samples), len(res.Samples))
	}
	for i, s := range doc.Samples {
		if s.MaxTempK != res.Samples[i].MaxTempK {
			t.Errorf("sample %d max temp = %v, want %v", i, s.MaxTempK, res.Samples[i].MaxTempK)
		}
		if _, ok := s.TempK["core0"]; !ok {
			t.Errorf("sample %d missing component temperature", i)
		}
	}
}

// TestRunJSONSummary checks the structured -json document: the run summary
// rides alongside the sample series, and a consumer that reads only the
// samples still reads the same document.
func TestRunJSONSummary(t *testing.T) {
	fp, res := runResult(t)
	sum := NewRunSummary("matrix", fp, res, len(res.Samples), nil)
	if sum.Cycles != res.Cycles || sum.Windows != len(res.Samples) || !sum.Done {
		t.Fatalf("summary scalars: %+v", sum)
	}
	if sum.MaxTempK != res.MaxTempK || sum.ThermalLagPs != res.ThermalLagPs {
		t.Fatalf("summary thermal fields: %+v", sum)
	}
	last := res.Samples[len(res.Samples)-1]
	if len(sum.FinalTempK) != len(fp.Components) {
		t.Fatalf("final temps cover %d of %d components", len(sum.FinalTempK), len(fp.Components))
	}
	if sum.FinalTempK[fp.Components[0].Name] != last.CompTempK[0] {
		t.Errorf("final temp of %s = %v, want %v",
			fp.Components[0].Name, sum.FinalTempK[fp.Components[0].Name], last.CompTempK[0])
	}

	var buf bytes.Buffer
	if err := WriteRunJSON(&buf, fp, sum, res.Samples); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{`"run"`, `"workload": "matrix"`, `"windows"`, `"thermal_lag_ps"`, `"final_temp_k"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("run document missing %s", want)
		}
	}
	var view runDoc
	if err := json.Unmarshal(buf.Bytes(), &view); err != nil {
		t.Fatalf("samples-only reader rejected the run document: %v", err)
	}
	if view.Floorplan != fp.Name || len(view.Samples) != len(res.Samples) {
		t.Fatalf("samples-only view: floorplan %q, %d samples", view.Floorplan, len(view.Samples))
	}
}
