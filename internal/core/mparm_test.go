package core

import (
	"strings"
	"testing"

	"thermemu/internal/checkpoint"
	"thermemu/internal/golden"
	"thermemu/internal/tm"
)

// TestRunMPARMMatchesRun runs one small Matrix-TM closed loop with
// threshold DFS on both kernels. The loop is the same code, so the
// signal-level baseline must emulate the same windows, digest and DFS
// events as the fast kernel.
func TestRunMPARMMatchesRun(t *testing.T) {
	run := func(kernel func(Config, func(Sample)) (*Result, error)) (*Result, *golden.Trace) {
		t.Helper()
		cfg := testConfig(t, 2, &tm.ThresholdDFS{HighK: 305, LowK: 302, HighFreqHz: 500e6, LowFreqHz: 100e6})
		cfg.WindowPs = 10_000_000 // 10 µs: 5,000 cycles at 500 MHz
		cfg.ThermalTimeScale = 20_000
		cfg.Golden = golden.New()
		res, err := kernel(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatal("run incomplete")
		}
		return res, cfg.Golden
	}
	fast, fastTr := run(Run)
	slow, slowTr := run(RunMPARM)
	t.Logf("%d cycles, %d windows, %d records, %d DFS events, max %.2f K",
		fast.Cycles, len(fast.Samples), fastTr.Len(), fast.DFSEvents, fast.MaxTempK)
	if fast.DFSEvents == 0 {
		t.Fatal("the policy never acted: the test no longer covers DFS feedback")
	}
	if fastTr.Hex() != slowTr.Hex() || fastTr.Len() != slowTr.Len() {
		t.Errorf("digest %s over %d records (fast) vs %s over %d (MPARM)",
			fastTr.Hex(), fastTr.Len(), slowTr.Hex(), slowTr.Len())
	}
	if fast.Cycles != slow.Cycles || fast.DFSEvents != slow.DFSEvents || len(fast.Samples) != len(slow.Samples) {
		t.Errorf("fast %d cycles, %d DFS events, %d samples; MPARM %d, %d, %d",
			fast.Cycles, fast.DFSEvents, len(fast.Samples), slow.Cycles, slow.DFSEvents, len(slow.Samples))
	}
}

// TestRunMPARMRejectsResume: the baseline's signal-recovered statistics
// count from the kernel's construction, so a resumed platform's counters
// could never match them and VerifyObserved would fail spuriously.
func TestRunMPARMRejectsResume(t *testing.T) {
	cfg := testConfig(t, 1, nil)
	cfg.Resume = &checkpoint.Checkpoint{}
	if _, err := RunMPARM(cfg, nil); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("RunMPARM with Resume: err = %v, want a resume refusal", err)
	}
}
