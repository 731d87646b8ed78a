package vpcm

import (
	"fmt"
	"sort"
)

// SourceCycles attributes suppression cycles to a named source in a
// checkpointable (deterministically ordered) form.
type SourceCycles struct {
	Source string
	Cycles uint64
}

// SourcePs attributes frozen picoseconds to a named source.
type SourcePs struct {
	Source string
	Ps     uint64
}

// State is the complete checkpointable clock state. Maps are flattened to
// slices sorted by source name so two saves of the same clock are
// structurally identical.
type State struct {
	PhysHz      uint64
	VirtHz      uint64
	Cycle       uint64
	TimePs      uint64
	WallPs      uint64
	FrozenPs    uint64
	Suppression []SourceCycles
	FrozenBySrc []SourcePs
	History     []FreqChange
}

// SaveState captures the clock for checkpointing.
func (v *VPCM) SaveState() State {
	s := State{
		PhysHz:   v.physHz,
		VirtHz:   v.virtHz,
		Cycle:    v.cycle,
		TimePs:   v.timePs,
		History:  append([]FreqChange(nil), v.history...),
		FrozenPs: v.FrozenPs(),
	}
	v.suppMu.Lock()
	s.WallPs = v.wallPs
	s.Suppression = make([]SourceCycles, 0, len(v.suppress))
	for src, c := range v.suppress {
		s.Suppression = append(s.Suppression, SourceCycles{src, c})
	}
	v.suppMu.Unlock()
	sort.Slice(s.Suppression, func(i, j int) bool {
		return s.Suppression[i].Source < s.Suppression[j].Source
	})
	v.freezeMu.Lock()
	s.FrozenBySrc = make([]SourcePs, 0, len(v.frozenBySrc))
	for src, ps := range v.frozenBySrc {
		s.FrozenBySrc = append(s.FrozenBySrc, SourcePs{src, ps})
	}
	v.freezeMu.Unlock()
	sort.Slice(s.FrozenBySrc, func(i, j int) bool {
		return s.FrozenBySrc[i].Source < s.FrozenBySrc[j].Source
	})
	return s
}

// RestoreState rewinds the clock to a saved state. The physical oscillator
// frequency is construction-time configuration, so a mismatch means the
// checkpoint belongs to a differently configured platform.
func (v *VPCM) RestoreState(s State) error {
	if s.PhysHz != v.physHz {
		return fmt.Errorf("vpcm: checkpoint physical clock %d Hz, platform has %d Hz", s.PhysHz, v.physHz)
	}
	if s.VirtHz == 0 {
		return fmt.Errorf("vpcm: checkpoint virtual frequency is zero")
	}
	if len(s.History) == 0 {
		return fmt.Errorf("vpcm: checkpoint has empty frequency history")
	}
	last := s.History[len(s.History)-1]
	if last.Hz != s.VirtHz {
		return fmt.Errorf("vpcm: history ends at %d Hz but virtual clock is %d Hz", last.Hz, s.VirtHz)
	}
	if last.Cycle > s.Cycle || last.TimePs > s.TimePs {
		return fmt.Errorf("vpcm: history's last change (cycle %d, %d ps) is past the clock (cycle %d, %d ps)",
			last.Cycle, last.TimePs, s.Cycle, s.TimePs)
	}
	v.virtHz = s.VirtHz
	v.cycle = s.Cycle
	v.timePs = s.TimePs
	v.history = append([]FreqChange(nil), s.History...)
	v.suppMu.Lock()
	v.wallPs = s.WallPs
	v.suppress = make(map[string]uint64, len(s.Suppression))
	v.suppTotal = 0
	for _, sc := range s.Suppression {
		v.suppress[sc.Source] = sc.Cycles
		v.suppTotal += sc.Cycles
	}
	v.suppMu.Unlock()
	v.freezeMu.Lock()
	v.frozenPs = s.FrozenPs
	v.frozenBySrc = make(map[string]uint64, len(s.FrozenBySrc))
	for _, sp := range s.FrozenBySrc {
		v.frozenBySrc[sp.Source] = sp.Ps
	}
	v.freezeMu.Unlock()
	return nil
}
