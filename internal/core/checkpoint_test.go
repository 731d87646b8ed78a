package core

import (
	"fmt"
	"strings"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/golden"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

// collectSink returns a CheckpointSink that round-trips every checkpoint
// through the binary codec (as a file-based sink would) and collects the
// decoded copies.
func collectSink(out *[]*checkpoint.Checkpoint) func(*checkpoint.Checkpoint) error {
	return func(c *checkpoint.Checkpoint) error {
		dec, err := checkpoint.Decode(checkpoint.Encode(c))
		if err != nil {
			return err
		}
		*out = append(*out, dec)
		return nil
	}
}

func TestCheckpointConfigValidation(t *testing.T) {
	sink := func(*checkpoint.Checkpoint) error { return nil }

	cfg := testConfig(t, 2, nil)
	cfg.CheckpointEvery = 2 // without a sink
	if _, err := Run(cfg, nil); err == nil {
		t.Error("CheckpointEvery without a CheckpointSink accepted")
	}

	cfg = testConfig(t, 2, nil)
	dev, _ := etherlink.LoopbackPair(4)
	cfg.Transport = dev
	cfg.CheckpointSink = sink
	if _, err := Run(cfg, nil); err == nil || !strings.Contains(err.Error(), "in-process") {
		t.Errorf("transport-mode checkpointing accepted: %v", err)
	}

	// A policy without checkpoint support cannot be silently dropped from
	// the snapshot: a resumed run would diverge.
	cfg = testConfig(t, 2, uncheckpointablePolicy{})
	cfg.CheckpointSink = sink
	if _, err := Run(cfg, nil); err == nil || !strings.Contains(err.Error(), "Checkpointable") {
		t.Errorf("uncheckpointable policy accepted: %v", err)
	}
}

type uncheckpointablePolicy struct{ tm.NullPolicy }

func (uncheckpointablePolicy) Name() string { return "uncheckpointable" }

// ckptConfig is testConfig with a finer sampling window (10k cycles at
// 500 MHz), so even the short test workloads span enough windows for the
// resume matrix.
func ckptConfig(t *testing.T, iters int, policy tm.Policy) Config {
	t.Helper()
	cfg := testConfig(t, iters, policy)
	cfg.WindowPs = 20_000_000
	return cfg
}

// runStraight executes one checkpointed reference run and returns its
// result, trace and collected checkpoints.
func runStraight(t *testing.T, iters int, policy tm.Policy, depth, every int) (*Result, *golden.Trace, []*checkpoint.Checkpoint) {
	t.Helper()
	cfg := ckptConfig(t, iters, policy)
	cfg.PipelineDepth = depth
	cfg.Golden = golden.New()
	var cks []*checkpoint.Checkpoint
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = collectSink(&cks)
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("reference run did not finish")
	}
	if len(cks) < 2 {
		t.Fatalf("reference run cut only %d checkpoints", len(cks))
	}
	return res, cfg.Golden, cks
}

// resumeFrom re-runs the same configuration from the given checkpoint.
func resumeFrom(t *testing.T, ck *checkpoint.Checkpoint, iters int, policy tm.Policy, depth, every int, fork bool) (*Result, *golden.Trace, []*checkpoint.Checkpoint) {
	t.Helper()
	cfg := ckptConfig(t, iters, policy)
	cfg.PipelineDepth = depth
	cfg.Golden = golden.New()
	var cks []*checkpoint.Checkpoint
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = collectSink(&cks)
	cfg.Resume = ck
	cfg.Fork = fork
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Golden, cks
}

// TestSerialResumeDigestIdentity: resuming a serial closed-loop run from
// its first, middle and last checkpoint reproduces the uninterrupted run's
// final golden digest and result metrics bit for bit.
func TestSerialResumeDigestIdentity(t *testing.T) {
	straight, tr, cks := runStraight(t, 16, nil, 0, 2)

	for _, wi := range []int{0, len(cks) / 2, len(cks) - 1} {
		ck := cks[wi]
		res, rtr, rcks := resumeFrom(t, ck, 16, nil, 0, 2, false)
		if rtr.Sum64() != tr.Sum64() || rtr.Len() != tr.Len() {
			t.Errorf("resume from window %d: digest %s/%d, want %s/%d",
				ck.Window, rtr.Hex(), rtr.Len(), tr.Hex(), tr.Len())
		}
		if res.Cycles != straight.Cycles || res.VirtualS != straight.VirtualS ||
			res.MaxTempK != straight.MaxTempK || res.Done != straight.Done ||
			res.DFSEvents != straight.DFSEvents {
			t.Errorf("resume from window %d: metrics drifted: %+v vs %+v",
				ck.Window, res, straight)
		}
		if want := len(straight.Samples) - int(ck.Window); len(res.Samples) != want {
			t.Errorf("resume from window %d: %d samples, want the %d remaining windows",
				ck.Window, len(res.Samples), want)
		}
		// The resumed run's later checkpoints capture the same platform
		// states as the straight run's.
		for _, rck := range rcks {
			for _, sck := range cks {
				if sck.Window == rck.Window && sck.StateDigest != rck.StateDigest {
					t.Errorf("window %d state digest drifted after resume", rck.Window)
				}
			}
		}
	}
}

// TestInterruptedRunResumesToStraightDigest models the real operational
// story behind `thermemu -resume`: a run stops halfway (MaxCycles), and a
// second process resumes from its last checkpoint — the final digest must
// equal the one of a run that was never interrupted.
func TestInterruptedRunResumesToStraightDigest(t *testing.T) {
	straight, tr, _ := runStraight(t, 16, nil, 0, 1)

	cfg := ckptConfig(t, 16, nil)
	cfg.Golden = golden.New()
	var cks []*checkpoint.Checkpoint
	cfg.CheckpointEvery = 1
	cfg.CheckpointSink = collectSink(&cks)
	cfg.MaxCycles = straight.Cycles / 2
	half, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if half.Done {
		t.Fatal("half run unexpectedly finished")
	}
	if len(cks) < 2 {
		t.Fatal("half run cut too few checkpoints")
	}

	// The very last checkpoint sits on the MaxCycles-truncated window
	// boundary; resuming from it would shift every later window. Resume
	// from the last full-window checkpoint instead.
	res, rtr, _ := resumeFrom(t, cks[len(cks)-2], 16, nil, 0, 1, false)
	if !res.Done {
		t.Fatal("resumed run did not finish")
	}
	if rtr.Sum64() != tr.Sum64() || rtr.Len() != tr.Len() {
		t.Fatalf("resumed digest %s/%d != straight %s/%d", rtr.Hex(), rtr.Len(), tr.Hex(), tr.Len())
	}
}

// TestPipelinedResumeDigestIdentity: the same identity for the pipelined
// loop. The checkpoint cadence is part of the pipelined determinism
// contract (each checkpoint drains the pipeline), so both runs use the
// same cadence.
func TestPipelinedResumeDigestIdentity(t *testing.T) {
	straight, tr, cks := runStraight(t, 16, nil, 2, 2)

	for _, wi := range []int{0, len(cks) - 1} {
		ck := cks[wi]
		res, rtr, _ := resumeFrom(t, ck, 16, nil, 2, 2, false)
		if rtr.Sum64() != tr.Sum64() || rtr.Len() != tr.Len() {
			t.Errorf("resume from window %d: digest %s/%d, want %s/%d",
				ck.Window, rtr.Hex(), rtr.Len(), tr.Hex(), tr.Len())
		}
		if res.Cycles != straight.Cycles || res.Done != straight.Done {
			t.Errorf("resume from window %d: metrics drifted: %+v vs %+v",
				ck.Window, res, straight)
		}
	}
}

// TestPolicyStateResumes: a thermal-management run resumed mid-flight must
// restore the policy's internal state (hysteresis) and the thermal model
// exactly — proven by digest identity, which is frequency-trajectory
// sensitive.
func TestPolicyStateResumes(t *testing.T) {
	probe, err := Run(ckptConfig(t, 60, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if probe.MaxTempK <= 320 {
		t.Skipf("test workload only reached %.1f K; cannot exercise the policy", probe.MaxTempK)
	}
	mkPol := func() tm.Policy {
		return &tm.ThresholdDFS{HighK: 320, LowK: 315, HighFreqHz: 500e6, LowFreqHz: 100e6}
	}
	straight, tr, cks := runStraight(t, 60, mkPol(), 0, 2)
	if straight.DFSEvents == 0 {
		t.Fatal("policy never acted in the reference run")
	}

	ck := cks[len(cks)/2]
	res, rtr, _ := resumeFrom(t, ck, 60, mkPol(), 0, 2, false)
	if rtr.Sum64() != tr.Sum64() || rtr.Len() != tr.Len() {
		t.Fatalf("TM resume from window %d: digest %s/%d, want %s/%d",
			ck.Window, rtr.Hex(), rtr.Len(), tr.Hex(), tr.Len())
	}
	if res.DFSEvents != straight.DFSEvents || res.MaxTempK != straight.MaxTempK {
		t.Fatalf("TM resume: %d DFS events / %.6f K, want %d / %.6f K",
			res.DFSEvents, res.MaxTempK, straight.DFSEvents, straight.MaxTempK)
	}
}

// TestForkSkipsLineage: -fork branches a new experiment off the snapshot,
// so its digest lineage starts fresh instead of continuing the original's.
func TestForkSkipsLineage(t *testing.T) {
	_, tr, cks := runStraight(t, 16, nil, 0, 2)
	_, ftr, _ := resumeFrom(t, cks[0], 16, nil, 0, 2, true)
	if ftr.Len() >= tr.Len() {
		t.Fatalf("forked trace folded %d records, continuation would be %d", ftr.Len(), tr.Len())
	}
}

// faultingSpec builds a workload where core 0 spins for about 2*delay
// cycles and then executes an illegal opcode, while the other cores halt
// immediately — a deterministic mid-run platform error.
func faultingSpec(t *testing.T, cores, delay int) *workloads.Spec {
	t.Helper()
	bad := fmt.Sprintf(`
	li r1, %d
loop:
	dec r1
	bne r1, r0, loop
	.word 0xFC000000 ; opcode 63: illegal
`, delay)
	spec := &workloads.Spec{Name: "faulting"}
	for i := 0; i < cores; i++ {
		src := "\thalt\n"
		if i == 0 {
			src = bad
		}
		spec.Programs = append(spec.Programs, asm.MustAssemble(src))
	}
	return spec
}

// TestCheckpointCadenceAtEveryDepth: the cadence rule is the same at every
// pipeline depth — the window that reaches a cadence multiple drains the
// pipeline and cuts its checkpoint, the run's final window included — so
// with a cadence of one window every committed window has its checkpoint.
func TestCheckpointCadenceAtEveryDepth(t *testing.T) {
	for _, depth := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := ckptConfig(t, 2, nil)
			cfg.PipelineDepth = depth
			var cks []*checkpoint.Checkpoint
			cfg.CheckpointEvery = 1
			cfg.CheckpointSink = collectSink(&cks)
			res, err := Run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			windows := uint64(len(res.Samples))
			if windows == 0 {
				t.Fatal("run committed no windows")
			}
			if uint64(len(cks)) != windows {
				t.Fatalf("%d checkpoints for %d committed windows", len(cks), windows)
			}
			if last := cks[len(cks)-1]; last.Window != windows || last.Partial {
				t.Fatalf("last checkpoint at window %d (partial=%v), want window %d",
					last.Window, last.Partial, windows)
			}
		})
	}
}

// TestPartialErrorFlushesLoadableCheckpoint: when a run aborts mid-flight
// with checkpointing active, the Partial error path must flush one final
// checkpoint, and that snapshot must load back into a fresh platform.
func TestPartialErrorFlushesLoadableCheckpoint(t *testing.T) {
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := testConfig(t, 2, nil)
			// ~2.5 sampling windows (50k cycles each at 500 MHz / 0.1 ms)
			// before the fault, so regular checkpoints precede the flush.
			cfg.Workload = faultingSpec(t, 4, 60_000)
			cfg.PipelineDepth = depth
			var cks []*checkpoint.Checkpoint
			cfg.CheckpointEvery = 1
			cfg.CheckpointSink = collectSink(&cks)

			res, err := Run(cfg, nil)
			if err == nil || !strings.Contains(err.Error(), "illegal opcode") {
				t.Fatalf("run err = %v, want the injected illegal opcode", err)
			}
			if !res.Partial {
				t.Fatal("aborted run not marked Partial")
			}
			if len(cks) < 2 {
				t.Fatalf("only %d checkpoints collected", len(cks))
			}
			last := cks[len(cks)-1]
			if !last.Partial {
				t.Fatal("final flushed checkpoint not marked Partial")
			}
			for _, c := range cks[:len(cks)-1] {
				if c.Partial {
					t.Fatal("regular cadence checkpoint marked Partial")
				}
			}

			// The partial snapshot is loadable: it restores into a fresh
			// platform of the same configuration (including the faulted
			// core state) and passes the embedded digest check.
			p, err := emu.New(cfg.Platform)
			if err != nil {
				t.Fatal(err)
			}
			for i, im := range cfg.Workload.Programs {
				if err := p.LoadProgram(i, im); err != nil {
					t.Fatal(err)
				}
			}
			if err := last.Apply(p); err != nil {
				t.Fatalf("partial checkpoint does not load: %v", err)
			}
			if p.Fault() == nil {
				t.Fatal("restored platform lost the fault state")
			}
		})
	}
}

// TestSinkFailureAbortsRun: a failing sink aborts the run with a Partial
// result and does not loop on the broken sink for the final flush.
func TestSinkFailureAbortsRun(t *testing.T) {
	calls := 0
	cfg := testConfig(t, 4, nil)
	cfg.CheckpointEvery = 1
	cfg.CheckpointSink = func(*checkpoint.Checkpoint) error {
		calls++
		return fmt.Errorf("disk full")
	}
	res, err := Run(cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("run err = %v, want the sink error", err)
	}
	if !res.Partial {
		t.Fatal("sink failure did not mark the result Partial")
	}
	if calls != 1 {
		t.Fatalf("broken sink called %d times, want 1", calls)
	}
}
