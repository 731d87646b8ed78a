package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"thermemu/internal/checkpoint"
	"thermemu/internal/golden"
	"thermemu/internal/tm"
)

// groupPolicies are the members of the parity groups: no policy, the two
// DFS policies and one that changes the frequency on every window, so the
// members' window boundaries interleave on the shared platform.
var groupPolicies = []struct {
	name string
	mk   func() tm.Policy
}{
	{"none", func() tm.Policy { return nil }},
	{"threshold-dfs", func() tm.Policy { return tm.NewThresholdDFS() }},
	{"proportional-dfs", func() tm.Policy { return tm.NewProportionalDFS() }},
	{"flip", func() tm.Policy { return newFlip100() }},
}

// groupConfig is the Figure 6 loop at a 0.1 ms window, where the die heats
// through the DFS thresholds within the run.
func groupConfig(t *testing.T, policy tm.Policy, depth int) Config {
	t.Helper()
	cfg, err := Fig6Config(12, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WindowPs = 100_000_000
	cfg.ThermalTimeScale = 4000
	cfg.Policy = policy
	cfg.PipelineDepth = depth
	return cfg
}

// groupRun is one member's observable outcome.
type groupRun struct {
	res   *Result
	err   error
	tr    *golden.Trace
	ckpts [][]byte
}

// observe wires a golden trace (journaling unless the run resumes a
// lineage) and a recording checkpoint sink (every 5 windows) into cfg.
func observe(cfg *Config, r *groupRun) {
	r.tr = golden.NewJournal()
	if cfg.Resume != nil {
		r.tr = golden.New()
	}
	cfg.Golden = r.tr
	cfg.CheckpointEvery = 5
	cfg.CheckpointSink = func(c *checkpoint.Checkpoint) error {
		r.ckpts = append(r.ckpts, checkpoint.Encode(c))
		return nil
	}
}

// requireSameRun requires a group member's outcome to equal its solo run's
// in everything that does not depend on host timing. Checkpoints carry the
// frozen time a lagging solve accrues above depth 0, so they are compared
// at depth 0 only.
func requireSameRun(t *testing.T, name string, depth int, got, want groupRun) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: error %v, solo %v", name, got.err, want.err)
	}
	a, b := got.res, want.res
	if a == nil || b == nil {
		t.Fatalf("%s: no result (error %v)", name, got.err)
	}
	if a.Cycles != b.Cycles || a.VirtualS != b.VirtualS || a.DFSEvents != b.DFSEvents || a.Done != b.Done ||
		a.Partial != b.Partial || a.MaxTempK != b.MaxTempK || a.OverlapCycles != b.OverlapCycles {
		t.Fatalf("%s: summaries differ:\ngroup %d cy %.9fs dfs %d done %v partial %v max %v overlap %d\nsolo  %d cy %.9fs dfs %d done %v partial %v max %v overlap %d",
			name, a.Cycles, a.VirtualS, a.DFSEvents, a.Done, a.Partial, a.MaxTempK, a.OverlapCycles,
			b.Cycles, b.VirtualS, b.DFSEvents, b.Done, b.Partial, b.MaxTempK, b.OverlapCycles)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("%s: %d samples, solo %d", name, len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if !reflect.DeepEqual(a.Samples[i], b.Samples[i]) {
			t.Fatalf("%s: sample %d differs:\ngroup %+v\nsolo  %+v", name, i, a.Samples[i], b.Samples[i])
		}
	}
	if a.Report != b.Report {
		t.Fatalf("%s: reports differ:\ngroup %s\nsolo  %s", name, a.Report, b.Report)
	}
	if !reflect.DeepEqual(a.FinalSnap, b.FinalSnap) {
		t.Fatalf("%s: final snapshots differ", name)
	}
	if got.tr.Hex() != want.tr.Hex() || got.tr.Len() != want.tr.Len() {
		t.Fatalf("%s: digest %s over %d records, solo %s over %d: %v", name,
			got.tr.Hex(), got.tr.Len(), want.tr.Hex(), want.tr.Len(), golden.Compare(got.tr, want.tr))
	}
	if len(got.ckpts) != len(want.ckpts) {
		t.Fatalf("%s: %d checkpoints, solo %d", name, len(got.ckpts), len(want.ckpts))
	}
	for i := range got.ckpts {
		if depth == 0 && !reflect.DeepEqual(got.ckpts[i], want.ckpts[i]) {
			t.Fatalf("%s: checkpoint %d differs", name, i)
		}
	}
}

// TestGroupMatchesSolo is the group contract: at depths 0, 1 and 2, from
// reset and from a TM-off warm-up prefix, each member of a group {none,
// threshold-dfs, proportional-dfs, flip} run over one platform reports
// exactly what a solo Run of its config reports.
func TestGroupMatchesSolo(t *testing.T) {
	// The warm-up prefix: 3 windows with TM off, cut as a checkpoint.
	var prefix []byte
	cut := errors.New("cut")
	pcfg := groupConfig(t, nil, 0)
	pcfg.CheckpointEvery = 3
	pcfg.CheckpointSink = func(c *checkpoint.Checkpoint) error {
		prefix = checkpoint.Encode(c)
		return cut
	}
	if _, err := Run(pcfg, nil); !errors.Is(err, cut) {
		t.Fatalf("warm-up run: %v", err)
	}
	resume := func(t *testing.T) *checkpoint.Checkpoint {
		ck, err := checkpoint.Decode(prefix)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}

	for _, depth := range []int{0, 1, 2} {
		for _, warm := range []bool{false, true} {
			t.Run(fmt.Sprintf("depth%d/warm=%v", depth, warm), func(t *testing.T) {
				var shared *checkpoint.Checkpoint
				if warm {
					shared = resume(t)
				}
				cfgs := make([]Config, len(groupPolicies))
				runs := make([]groupRun, len(groupPolicies))
				dfs := 0
				for i, gp := range groupPolicies {
					solo := groupConfig(t, gp.mk(), depth)
					cfgs[i] = groupConfig(t, gp.mk(), depth)
					if warm {
						solo.Resume, solo.Fork = resume(t), solo.Policy != nil
						cfgs[i].Resume, cfgs[i].Fork = shared, cfgs[i].Policy != nil
					}
					var want groupRun
					observe(&solo, &want)
					observe(&cfgs[i], &runs[i])
					want.res, want.err = Run(solo, nil)
					if want.err != nil || !want.res.Done {
						t.Fatalf("%s: solo run: %v", gp.name, want.err)
					}
					if spans, _ := floorSpans(solo, want.res.Samples); depth == 0 && !warm && want.res.OverlapCycles != spans {
						t.Fatalf("%s: solo run overlapped %d cycles, want one floor span per window: %d",
							gp.name, want.res.OverlapCycles, spans)
					}
					dfs += want.res.DFSEvents
					defer func(i int, name string) {
						if !t.Failed() {
							requireSameRun(t, name, depth, runs[i], want)
						}
					}(i, gp.name)
				}
				results, errs := RunGroup(cfgs, nil)
				for i := range runs {
					runs[i].res, runs[i].err = results[i], errs[i]
					if results[i] == nil {
						t.Fatalf("%s: no group result: %v", groupPolicies[i].name, errs[i])
					}
				}
				if dfs < 8 {
					t.Fatalf("the members made %d DFS changes in all: the group barely diverges", dfs)
				}
			})
		}
	}
}

// TestGroupRejectsSharedState: members must run one platform and must not
// share per-run state.
func TestGroupRejectsSharedState(t *testing.T) {
	a := groupConfig(t, nil, 0)
	for name, mk := range map[string]func() Config{
		"platform": func() Config { b := groupConfig(t, nil, 0); b.Platform.FreqHz = 100e6; return b },
		"workload": func() Config { b, _ := Fig6Config(3, false); b.WindowPs = a.WindowPs; return b },
		"host":     func() Config { b := groupConfig(t, nil, 0); b.Host = a.Host; return b },
	} {
		_, errs := RunGroup([]Config{a, mk()}, nil)
		if errs[0] == nil || errs[1] == nil || !strings.Contains(errs[1].Error(), "group member 1") {
			t.Errorf("%s: errors %v, want the group refused", name, errs)
		}
	}
	p := tm.NewThresholdDFS()
	b, c := groupConfig(t, p, 0), groupConfig(t, p, 0)
	if _, errs := RunGroup([]Config{b, c}, nil); errs[1] == nil || !strings.Contains(errs[1].Error(), "policy") {
		t.Errorf("a shared policy: %v, want the group refused", errs[1])
	}
}

// TestGroupMixedRuns: members may differ in MaxCycles, window length and
// depth, and equal value policies (which hold no state) may sit in two
// members; each still reports what its solo Run reports.
func TestGroupMixedRuns(t *testing.T) {
	mk := []func() Config{
		func() Config { c := groupConfig(t, tm.NullPolicy{}, 0); c.MaxCycles = 230_000; return c },
		func() Config { c := groupConfig(t, tm.NullPolicy{}, 1); c.WindowPs = 70_000_000; return c },
		func() Config { return groupConfig(t, newFlip100(), 0) },
	}
	cfgs := make([]Config, len(mk))
	runs := make([]groupRun, len(mk))
	wants := make([]groupRun, len(mk))
	for i, m := range mk {
		solo, member := m(), m()
		observe(&solo, &wants[i])
		observe(&member, &runs[i])
		if _, ok := member.Policy.(tm.NullPolicy); ok {
			// The null policy cannot be checkpointed.
			solo.CheckpointSink, member.CheckpointSink = nil, nil
			solo.CheckpointEvery, member.CheckpointEvery = 0, 0
		}
		wants[i].res, wants[i].err = Run(solo, nil)
		cfgs[i] = member
	}
	results, errs := RunGroup(cfgs, nil)
	for i := range runs {
		runs[i].res, runs[i].err = results[i], errs[i]
		requireSameRun(t, fmt.Sprintf("member %d", i), cfgs[i].PipelineDepth, runs[i], wants[i])
	}
	if results[0].Done || !results[2].Done {
		t.Fatalf("member 0 done %v, member 2 done %v: want the capped run cut short", results[0].Done, results[2].Done)
	}
}
