package thermemu

import (
	"strings"
	"testing"
)

func TestRunWorkloadAndBaselineAgree(t *testing.T) {
	spec, err := Matrix(2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunWorkload(DefaultPlatform(2), spec)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunWorkloadMPARM(DefaultPlatform(2), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Done || !slow.Done {
		t.Fatal("runs incomplete")
	}
	if fast.Cycles != slow.Cycles {
		t.Errorf("cycle counts differ: %d vs %d", fast.Cycles, slow.Cycles)
	}
	if fast.Instructions != slow.Instructions {
		t.Errorf("instruction counts differ: %d vs %d", fast.Instructions, slow.Instructions)
	}
	if !strings.Contains(fast.String(), "cycles") {
		t.Errorf("RunStats.String = %q", fast.String())
	}
}

func TestRunWorkloadGoldenMatchesRunWorkload(t *testing.T) {
	spec, err := Matrix(4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunWorkload(DefaultPlatform(4), spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewGoldenJournal()
	sampled, err := RunWorkloadGolden(DefaultPlatform(4), spec, 256, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Cycles != plain.Cycles || sampled.Instructions != plain.Instructions {
		t.Errorf("sampling changed the run: %d cycles / %d instructions vs %d / %d",
			sampled.Cycles, sampled.Instructions, plain.Cycles, plain.Instructions)
	}
	if tr.Len() == 0 {
		t.Fatal("golden run recorded nothing")
	}
}

func TestCoEmulationGoldenReproducible(t *testing.T) {
	run := func() *GoldenTrace {
		cfg, err := Fig6(2, true)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ThermalTimeScale = 100
		cfg.Golden = NewGoldenTrace()
		if _, err := RunCoEmulation(cfg, nil); err != nil {
			t.Fatal(err)
		}
		return cfg.Golden
	}
	a, b := run(), run()
	if d := CompareGolden(a, b); d != nil {
		t.Fatalf("repeated co-emulation runs diverge: %s", d)
	}
	if a.Len() == 0 {
		t.Fatal("co-emulation recorded no golden records")
	}
}

func TestTable1ContainsPaperRows(t *testing.T) {
	out := Table1()
	for _, want := range []string{"RISC32-ARM7", "RISC32-ARM11", "DCache-8kB-2way",
		"ICache-8kB-DM", "Memory-32kB", "0.5", "1.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ContainsPaperRows(t *testing.T) {
	out := Table2()
	for _, want := range []string{"150", "4/3", "350", "400", "1000", "20 K/W"} {
		if !strings.Contains(out, want) && !strings.Contains(out, "1.333") {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "1.628e+06") {
		t.Errorf("Table 2 missing silicon specific heat:\n%s", out)
	}
}

func TestTable3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table 3 comparison is slow")
	}
	rows, err := Table3(Table3Options{MatrixN: 6, MatrixIters: 1, DitherSize: 16, SkipTM: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%s: emulator not faster than the baseline (%.2fx)", r.Name, r.Speedup)
		}
		if r.EmuMHz <= 0 || r.MPARMkHz <= 0 {
			t.Errorf("%s: missing frequency metrics", r.Name)
		}
		if !strings.Contains(r.String(), "paper:") {
			t.Errorf("row string lacks the paper reference: %s", r)
		}
	}
	// The baseline simulates in the 100 kHz class; the emulator in the
	// MHz class (the paper's framing of the two approaches).
	for _, r := range rows {
		if r.MPARMkHz > 2000 {
			t.Errorf("%s: baseline at %.0f kHz is implausibly fast for a CA simulator", r.Name, r.MPARMkHz)
		}
		if r.EmuMHz < 0.5 {
			t.Errorf("%s: emulator at %.2f MHz is below the MHz class", r.Name, r.EmuMHz)
		}
	}
}

func TestFig6SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 6 run is slow")
	}
	d, err := Fig6Series(Fig6Options{Iters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NoTM) == 0 || len(d.WithTM) == 0 {
		t.Fatal("empty series")
	}
	// Both runs heat well above ambient.
	if d.MaxNoTM < 320 {
		t.Errorf("no-TM run only reached %.1f K", d.MaxNoTM)
	}
	// Once the unmanaged run crosses the 350 K threshold, the policy must
	// have engaged and kept the managed peak below the unmanaged one.
	if d.MaxNoTM > 352 {
		if d.DFSEvents == 0 {
			t.Error("policy never engaged despite crossing the threshold")
		}
		if d.MaxWithTM >= d.MaxNoTM {
			t.Errorf("TM peak %.1f K not below unmanaged peak %.1f K", d.MaxWithTM, d.MaxNoTM)
		}
	}
	// CSV writer emits both series with a header.
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "series,time_s,max_temp_k,freq_mhz,throttled") {
		t.Errorf("CSV header missing:\n%.100s", out)
	}
	if !strings.Contains(out, "no-tm,") || !strings.Contains(out, "with-tm,") {
		t.Error("CSV missing a series")
	}
}

func TestResourcesReproducesUtilisation(t *testing.T) {
	out, err := Resources()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"574", "XC2VP30", "paper: 66%", "paper: 80%", "paper: 70%"} {
		if !strings.Contains(out, want) {
			t.Errorf("resources output missing %q", want)
		}
	}
}

func TestSolverPerfBeatsRealTimeClaim(t *testing.T) {
	r, err := SolverPerf(660, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells < 660 {
		t.Errorf("model has %d cells, want >= 660", r.Cells)
	}
	// The paper's claim is 2 s simulated in 1.65 s (1.2x). Requiring 0.5x
	// leaves ample headroom for slow CI machines while still catching a
	// performance collapse.
	if r.RealTimeX < 0.5 {
		t.Errorf("solver at %.2fx real time; the framework needs ~1x to close the loop", r.RealTimeX)
	}
	if !strings.Contains(r.String(), "660") && !strings.Contains(r.String(), "669") {
		t.Errorf("result string = %q", r.String())
	}
}

func TestFig6ConfigViaFacade(t *testing.T) {
	cfg, err := Fig6(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy == nil || cfg.Host == nil || cfg.Workload == nil {
		t.Error("incomplete Fig6 config")
	}
}

func TestLoopbackLinkFacade(t *testing.T) {
	dev, host := LoopbackLink(2)
	if err := dev.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	b, err := host.Recv()
	if err != nil || string(b) != "x" {
		t.Fatalf("recv %q %v", b, err)
	}
	dev.Close()
}

func TestFloorplanAccessors(t *testing.T) {
	if FourARM7().Name != "4xARM7" || FourARM11().Name != "4xARM11" {
		t.Error("floorplan names")
	}
	if ThresholdDFS().Name() == "" {
		t.Error("policy name")
	}
}
