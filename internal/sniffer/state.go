package sniffer

// ActivityState is the checkpointable state of an Activity sniffer: one
// cycle counter per execution mode plus the enable bit.
type ActivityState struct {
	Counts  [int(numModes)]uint64
	Enabled bool
}

// SaveState captures the activity sniffer for checkpointing.
func (a *Activity) SaveState() ActivityState {
	return ActivityState{Counts: a.counts, Enabled: a.enabled}
}

// RestoreState rewinds the activity sniffer.
func (a *Activity) RestoreState(s ActivityState) {
	a.counts = s.Counts
	a.enabled = s.Enabled
}
