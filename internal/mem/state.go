package mem

// This file holds checkpointable state for the memory hierarchy: sparse
// memory pages, cache timing directories, controller counters and
// synchronisation devices. Save methods copy, never alias; Restore methods
// validate shape against the live object so a checkpoint from a differently
// configured platform is rejected instead of silently corrupting state.

import "fmt"

// PageState is one non-empty page of a sparse memory.
type PageState struct {
	Addr uint32 // page-aligned base address
	Data []byte // exactly one page
}

// MemoryState is the checkpointable state of a Memory.
type MemoryState struct {
	Pages []PageState // ascending by Addr
	Stats MemStats
}

// SaveState captures the memory contents (sparse page walk) and counters.
func (m *Memory) SaveState() MemoryState {
	s := MemoryState{Stats: m.stats}
	m.EachPage(func(addr uint32, page []byte) {
		s.Pages = append(s.Pages, PageState{Addr: addr, Data: append([]byte(nil), page...)})
	})
	return s
}

// RestoreState replaces the memory contents and counters with the saved
// state. Pages absent from the state are cleared.
func (m *Memory) RestoreState(s MemoryState) error {
	pages := make([]*[pageSize]byte, len(m.pages))
	for i, p := range s.Pages {
		if p.Addr%pageSize != 0 {
			return fmt.Errorf("mem %s: page address %#x not page-aligned", m.name, p.Addr)
		}
		if p.Addr >= m.size {
			return fmt.Errorf("mem %s: page address %#x beyond size %d", m.name, p.Addr, m.size)
		}
		if i > 0 && p.Addr <= s.Pages[i-1].Addr {
			return fmt.Errorf("mem %s: page address %#x follows %#x, want ascending", m.name, p.Addr, s.Pages[i-1].Addr)
		}
		if len(p.Data) != pageSize {
			return fmt.Errorf("mem %s: page %#x has %d bytes, want %d", m.name, p.Addr, len(p.Data), pageSize)
		}
		var buf [pageSize]byte
		copy(buf[:], p.Data)
		pages[p.Addr/pageSize] = &buf
	}
	m.pages = pages
	m.stats = s.Stats
	return nil
}

// CacheLineState is one way of one set of a cache timing directory.
type CacheLineState struct {
	Tag   uint32
	Valid bool
	Dirty bool
	LRU   uint64
}

// CacheState is the checkpointable state of a Cache. Lines are stored
// set-major (set 0 way 0, set 0 way 1, ...).
type CacheState struct {
	Lines []CacheLineState
	Stamp uint64 // monotonic LRU clock
	Stats CacheStats
}

// SaveState captures the cache directory and counters.
func (c *Cache) SaveState() CacheState {
	s := CacheState{
		Lines: make([]CacheLineState, 0, int(c.nSets)*c.cfg.Assoc),
		Stamp: c.stamp,
		Stats: c.stats,
	}
	for _, ln := range c.lines {
		s.Lines = append(s.Lines, CacheLineState{Tag: ln.tag, Valid: ln.valid, Dirty: ln.dirty, LRU: ln.lru})
	}
	return s
}

// RestoreState replaces the cache directory and counters with the saved
// state. The line count must match the live geometry.
func (c *Cache) RestoreState(s CacheState) error {
	want := int(c.nSets) * c.cfg.Assoc
	if len(s.Lines) != want {
		return fmt.Errorf("cache: checkpoint has %d lines, geometry needs %d", len(s.Lines), want)
	}
	for i, ln := range s.Lines {
		c.lines[i] = cacheLine{tag: ln.Tag, valid: ln.Valid, dirty: ln.Dirty, lru: ln.LRU}
	}
	c.stamp = s.Stamp
	c.stats = s.Stats
	c.epoch++
	return nil
}

// RestoreStats replaces the controller counters (the controller has no
// other mutable state).
func (c *Controller) RestoreStats(s CtrlStats) { c.stats = s }

// BarrierState is the checkpointable state of a Barrier.
type BarrierState struct {
	Arrivals int
	Gen      uint32
}

// SaveState captures the barrier phase.
func (b *Barrier) SaveState() BarrierState {
	return BarrierState{Arrivals: b.arrivals, Gen: b.gen}
}

// RestoreState rewinds the barrier phase.
func (b *Barrier) RestoreState(s BarrierState) error {
	if s.Arrivals < 0 || s.Arrivals >= b.n {
		return fmt.Errorf("barrier %s: %d arrivals out of range for %d participants", b.name, s.Arrivals, b.n)
	}
	b.arrivals = s.Arrivals
	b.gen = s.Gen
	return nil
}
