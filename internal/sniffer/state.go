package sniffer

import "fmt"

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

// EventCounters is the checkpointable state of an EventSniffer (the ring it
// writes to is checkpointed separately, once, since it is shared).
type EventCounters struct {
	Logged   uint64
	Dropped  uint64
	FullHits uint64
	Enabled  bool
}

// SaveState captures the event sniffer counters for checkpointing.
func (s *EventSniffer) SaveState() EventCounters {
	return EventCounters{Logged: s.Logged, Dropped: s.Dropped, FullHits: s.FullHits, Enabled: s.enabled}
}

// RestoreState rewinds the event sniffer counters.
func (s *EventSniffer) RestoreState(c EventCounters) {
	s.Logged = c.Logged
	s.Dropped = c.Dropped
	s.FullHits = c.FullHits
	s.enabled = c.Enabled
}

// SaveState returns the buffered events oldest-first.
func (r *Ring) SaveState() []Event {
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%r.size])
	}
	return out
}

// RestoreState replaces the buffer contents with evs (oldest-first). The
// events must fit the ring's capacity.
func (r *Ring) RestoreState(evs []Event) error {
	if len(evs) > r.size {
		return fmt.Errorf("sniffer: %d buffered events exceed ring capacity %d", len(evs), r.size)
	}
	if len(evs) > 0 {
		r.alloc()
	}
	r.head = 0
	r.n = copy(r.buf, evs)
	return nil
}
