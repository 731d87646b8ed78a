package core

// Checkpoint/resume wiring for the co-emulation loop. A checkpoint is cut
// at committed sampling-window boundaries — the only points where the
// platform, the thermal model, the policy and the golden digest lineage are
// all consistent with each other — and carries everything a later process
// needs to continue the run bit-for-bit: the full architectural platform
// state, the RC thermal state, the policy state, the lagged component
// temperatures feeding the next power evaluation, and the golden trace
// accumulator so the resumed run's final digest equals an uninterrupted
// run's.

import (
	"fmt"

	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/tm"
)

// ckptRuntime carries one run's checkpoint/resume state. A nil *ckptRuntime
// means checkpointing is off: every method is a safe no-op on nil.
type ckptRuntime struct {
	cfg   *Config
	p     *emu.Platform
	every uint64
	// windows counts committed sampling windows across resumes: a run
	// resumed from window W continues at W+1, so the checkpoint cadence is
	// aligned with the original run's.
	windows uint64
	// lagTemps are the component temperatures in effect for the next power
	// evaluation at the last committed boundary (the latest applied
	// feedback).
	lagTemps []float64
	// broken latches a sink failure so the abort path does not try the
	// failing sink again.
	broken bool
}

// newCkptRuntime validates the checkpoint configuration. It returns (nil,
// nil) when neither checkpointing nor resume is requested.
func newCkptRuntime(cfg *Config, p *emu.Platform) (*ckptRuntime, error) {
	if cfg.CheckpointSink == nil && cfg.Resume == nil {
		if cfg.CheckpointEvery > 0 {
			return nil, fmt.Errorf("core: CheckpointEvery is set without a CheckpointSink")
		}
		return nil, nil
	}
	if cfg.Transport != nil {
		return nil, fmt.Errorf("core: checkpoint/resume requires an in-process thermal host (a transport-mode run does not own the thermal state)")
	}
	if cfg.CheckpointSink != nil && cfg.Policy != nil {
		if _, ok := cfg.Policy.(tm.Checkpointable); !ok {
			return nil, fmt.Errorf("core: policy %T cannot be checkpointed (no tm.Checkpointable)", cfg.Policy)
		}
	}
	ck := &ckptRuntime{cfg: cfg, p: p, every: uint64(cfg.CheckpointEvery)}
	if ck.every == 0 {
		ck.every = 1
	}
	return ck, nil
}

// resume restores what a resume checkpoint holds beyond the platform —
// the thermal model, the policy, the lagged component temperatures and
// the golden lineage — and returns the running MaxTempK it carries (0
// without a resume). The platform itself is restored by the caller.
func (ck *ckptRuntime) resume(eval *PowerEvaluator) (float64, error) {
	if ck == nil || ck.cfg.Resume == nil {
		return 0, nil
	}
	cfg, r := ck.cfg, ck.cfg.Resume
	var maxTempK float64
	ck.windows = r.Window
	if l := r.Loop; l != nil {
		if l.Thermal != nil {
			if err := cfg.Host.Model.RestoreState(*l.Thermal); err != nil {
				return 0, fmt.Errorf("core: resume thermal state: %w", err)
			}
		}
		if l.Policy != nil && cfg.Policy != nil {
			c, ok := cfg.Policy.(tm.Checkpointable)
			if !ok {
				return 0, fmt.Errorf("core: resume: policy %T cannot restore checkpoint state", cfg.Policy)
			}
			c.RestoreCheckpoint(*l.Policy)
		}
		if len(l.CompTemps) > 0 {
			ck.lagTemps = append([]float64(nil), l.CompTemps...)
			eval.SetComponentTemps(ck.lagTemps)
		}
		maxTempK = l.MaxTempK
	}
	if cfg.Golden != nil && !cfg.Fork {
		if err := cfg.Golden.Seed(r.GoldenSum, int(r.GoldenLen)); err != nil {
			return 0, fmt.Errorf("core: resume golden lineage: %w", err)
		}
	}
	return maxTempK, nil
}

// commit records one committed sampling window and the component
// temperatures its feedback applied.
func (ck *ckptRuntime) commit(compTemps []float64) {
	if ck == nil {
		return
	}
	ck.windows++
	ck.lagTemps = append(ck.lagTemps[:0], compTemps...)
}

// pending reports whether a checkpoint is due once the given number of
// in-flight windows commit (ask after each window is handed off, before
// the feedback boundary). The committed+inflight total advances by exactly
// one per emulated window, so each cadence multiple triggers exactly once.
func (ck *ckptRuntime) pending(inflight uint64) bool {
	return ck != nil && ck.cfg.CheckpointSink != nil && !ck.broken &&
		inflight > 0 && (ck.windows+inflight)%ck.every == 0
}

// capture builds the checkpoint of the current platform + loop state.
func (ck *ckptRuntime) capture(partial bool, maxTempK float64) *checkpoint.Checkpoint {
	c := checkpoint.FromPlatform(ck.p)
	c.Window = ck.windows
	c.Partial = partial
	if ck.cfg.Golden != nil {
		sum, n := ck.cfg.Golden.State()
		c.GoldenSum, c.GoldenLen = sum, uint64(n)
	}
	loop := &checkpoint.LoopState{MaxTempK: maxTempK}
	th := ck.cfg.Host.Model.SaveState()
	loop.Thermal = &th
	if cp, ok := ck.cfg.Policy.(tm.Checkpointable); ok {
		ps := cp.CheckpointState()
		loop.Policy = &ps
	}
	loop.CompTemps = append([]float64(nil), ck.lagTemps...)
	c.Loop = loop
	return c
}

// write cuts a checkpoint and hands it to the sink, latching sink failures.
func (ck *ckptRuntime) write(partial bool, maxTempK float64) error {
	if err := ck.cfg.CheckpointSink(ck.capture(partial, maxTempK)); err != nil {
		ck.broken = true
		return fmt.Errorf("core: checkpoint sink: %w", err)
	}
	return nil
}

// flushPartial cuts a final Partial checkpoint on the abort path, so a
// mid-run failure (solver error, link fault, platform fault) still leaves a
// loadable snapshot for postmortem replay. The original error is always
// preserved; a sink failure is reported alongside it. The snapshot is taken
// at the platform's current (post-abort) state with Partial set — the
// aborted window's emulation, and the floor span a depth-0 loop ran past
// it, is kept; its thermal solve is lost.
func (ck *ckptRuntime) flushPartial(err error, maxTempK float64) error {
	if ck == nil || ck.cfg.CheckpointSink == nil || ck.broken {
		return err
	}
	if werr := ck.write(true, maxTempK); werr != nil {
		return fmt.Errorf("%w (and the partial checkpoint flush failed: %v)", err, werr)
	}
	return err
}
