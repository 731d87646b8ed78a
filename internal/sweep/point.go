package sweep

import (
	"errors"
	"fmt"

	"thermemu/internal/checkpoint"
	"thermemu/internal/core"
	"thermemu/internal/golden"
	"thermemu/internal/scenario"
	"thermemu/internal/trace"
)

// Result is one grid point's outcome: the structured run summary plus the
// point's grid coordinates and its warm-up lineage.
type Result struct {
	Point int    `json:"point"`
	Name  string `json:"name"`
	trace.RunSummary
	// Warmed marks a run that started from the shared warm-up prefix
	// checkpoint; Forked additionally marks a fresh digest lineage (the
	// point runs a TM policy, so its digest is a branch off the prefix,
	// not a continuation of the TM-off run).
	Warmed bool `json:"warmed,omitempty"`
	Forked bool `json:"forked,omitempty"`
}

// RunPoint executes one grid point: the scenario is compiled through the
// same CoEmulation builder the CLI uses, with the golden digest always on.
// warmup, when non-nil, is an encoded TMCK checkpoint of the point's TM-off
// warm-up prefix: a TM-off point resumes it (continuing the golden lineage,
// so its final digest equals an uninterrupted serial run's), a point with a
// policy forks from it (fresh lineage, shared prefix cycles still saved).
func RunPoint(s *scenario.Scenario, warmup []byte) (*Result, error) {
	res, err := RunGroup([]*scenario.Scenario{s}, warmup)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunGroup executes grid points that share one platform — scenarios equal
// but for their TM policy, as points with one WarmupKey are — as one
// co-emulation (core.RunGroup): the platform is emulated once, and each
// point keeps its own clock, thermal host, policy and digest, so each
// result equals RunPoint's for the same scenario and warm-up. A point that
// fails fails the group, with the point named when there are several.
func RunGroup(ss []*scenario.Scenario, warmup []byte) ([]*Result, error) {
	var ck *checkpoint.Checkpoint
	if warmup != nil {
		var err error
		if ck, err = checkpoint.Decode(warmup); err != nil {
			return nil, fmt.Errorf("sweep: warm-up checkpoint: %w", err)
		}
	}
	cfgs, err := scenario.CoEmulations(ss)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(ss))
	windows := make([]int, len(ss))
	onSample := make([]func(core.Sample), len(ss))
	for i, s := range ss {
		cfg := &cfgs[i]
		cfg.Golden = golden.New()
		cfg.DiscardSamples = true
		results[i] = &Result{Name: s.Name}
		if ck != nil {
			cfg.Resume = ck
			cfg.Fork = s.Policy != "none"
			results[i].Warmed = true
			results[i].Forked = cfg.Fork
		}
		onSample[i] = func(core.Sample) { windows[i]++ }
	}
	runs, errs := core.RunGroup(cfgs, onSample)
	for i, err := range errs {
		if err != nil {
			return nil, nameErr(ss, i, err)
		}
	}
	for i, run := range runs {
		cfg := &cfgs[i]
		results[i].RunSummary = trace.NewRunSummary(cfg.Workload.Name, cfg.Host.FP, run, windows[i], cfg.Golden)
	}
	return results, nil
}

// nameErr names the failing point of a group of several.
func nameErr(ss []*scenario.Scenario, i int, err error) error {
	if len(ss) == 1 {
		return err
	}
	return fmt.Errorf("point %s: %w", ss[i].Name, err)
}

// errWarmupCut aborts the warm-up prefix run once its checkpoint is cut:
// the remaining windows belong to the grid points, not the prefix.
var errWarmupCut = errors.New("sweep: warm-up prefix complete")

// CutWarmup runs the TM-off warm-up prefix of a grid point's platform for
// the given number of sampling windows and returns the encoded checkpoint
// at that boundary. The prefix runs with the digest on, so a TM-off point
// resuming it continues a real golden lineage.
func CutWarmup(s *scenario.Scenario, windows int) ([]byte, error) {
	if windows <= 0 {
		return nil, fmt.Errorf("sweep: warm-up windows must be positive, got %d", windows)
	}
	c := *s
	c.Policy = "none"
	cfg, err := c.CoEmulation()
	if err != nil {
		return nil, err
	}
	cfg.Golden = golden.New()
	cfg.DiscardSamples = true
	var cut *checkpoint.Checkpoint
	cfg.CheckpointEvery = windows
	cfg.CheckpointSink = func(ck *checkpoint.Checkpoint) error {
		if ck.Partial {
			return nil
		}
		cut = ck
		return errWarmupCut
	}
	if _, err := core.Run(cfg, nil); err != nil && !errors.Is(err, errWarmupCut) {
		return nil, fmt.Errorf("sweep: warm-up prefix: %w", err)
	}
	if cut == nil {
		return nil, fmt.Errorf("sweep: workload %q halts before the %d-window warm-up prefix ends", s.Workload, windows)
	}
	return checkpoint.Encode(cut), nil
}
