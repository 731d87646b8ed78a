package emu

// This file implements the deterministic parallel kernel (RunParallel):
// a two-phase step/commit loop over the cores of the platform.
//
// Phase 1 (free run): within a chunk every core steps on its own goroutine
// against strictly private state — registers, private memory, scratchpad,
// L1 caches, stall counters. This is the batched direct-dispatch fast path:
// private-only instruction runs pay no synchronisation at all, mirroring the
// FPGA's spatial parallelism where each core tile clocks independently.
//
// Phase 2 (arbited commit): the moment a core's instruction would touch a
// shared resource (shared memory, the bus/NoC interconnect, the barrier or
// the sniffer control registers) it parks *before* the first side effect and
// reports its issue cycle to the arbiter. Only when every core is parked or
// finished with the chunk does the arbiter grant the parked core with the
// smallest (cycle, coreID) — at that point no core can still park at an
// earlier position, so grants replay exactly the serial kernel's
// interleaving (StepOne steps cores in ID order within a cycle). The granted
// core performs its whole instruction — including cache fills, write-backs
// and read-modify-write swaps — exclusively, then free-runs again until its
// next shared touch or the chunk boundary.
//
// Because the commit order, the cycle stamps handed to the interconnect and
// the stall feedback into each core are all identical to the serial kernel,
// every architectural and statistical observable is bit-identical to Run —
// at any chunk size — which the golden-trace conformance suite asserts.

import (
	"thermemu/internal/cpu"
	"thermemu/internal/mem"
)

// skipStall settles core c's outstanding memory-stall span in one bulk
// charge, bounded by chunkEnd (exclusive) — the exact equivalent of
// stepping the core cycle-by-cycle from `from` while it stalls. It returns
// the cycles skipped and adds them to *skipped. Halted cores consume no
// stall (the kernels charge them idle time instead), matching the halt
// check at the top of cpu.Core.Step.
func skipStall(c *cpu.Core, from, chunkEnd uint64, skipped *uint64) uint64 {
	if c.Halted() || from >= chunkEnd {
		return 0
	}
	span := c.StallRemaining()
	if span == 0 {
		return 0
	}
	if left := chunkEnd - from; span > left {
		span = left
	}
	c.AccrueStall(span)
	*skipped += span
	return span
}

type schedEventKind int

const (
	evPark schedEventKind = iota // core stopped before a shared access
	evDone                       // core finished (or halted out of) the chunk
)

type schedEvent struct {
	kind schedEventKind
	core int
	// cycle is the issue cycle of the blocked access (evPark) or the first
	// cycle the core did not execute (evDone).
	cycle uint64
}

// coreGate is the per-core rendezvous between the core's runner goroutine
// and the arbiter. cycle and held are only touched by the runner (the gate
// methods execute on the runner's goroutine, from inside Core.Step).
type coreGate struct {
	sched *scheduler
	core  int
	cycle uint64 // platform cycle of the Step in progress
	held  bool   // this Step already holds the shared-path grant
	// solo is set by the arbiter (before the grant send that publishes it)
	// when every other core has finished the chunk: the last core standing
	// is trivially in serial order, so its remaining accesses skip
	// arbitration entirely. Reset after the chunk joins.
	solo  bool
	grant chan struct{} // arbiter -> runner: proceed
}

// enter blocks until the arbiter grants this core the shared path. It is a
// no-op outside RunParallel (running false: serial stepping of a parallel
// platform needs no arbitration) and for the second and later shared
// accesses of one instruction (held: the grant spans the whole Step, so a
// cache fill plus write-back, or a swap's read-modify-write, commits
// atomically exactly as it does serially).
func (g *coreGate) enter() {
	s := g.sched
	if !s.running || g.held || g.solo {
		return
	}
	g.held = true
	s.events <- schedEvent{kind: evPark, core: g.core, cycle: g.cycle}
	<-g.grant
}

// scheduler holds the arbitration state of one parallel platform. Buffers
// are reused across chunks to keep the steady-state kernel allocation-free.
type scheduler struct {
	// running is true only while runner goroutines are live. It is toggled
	// exclusively when no runners exist (before spawning / after joining),
	// with the spawn and the join providing the happens-before edges.
	running bool
	events  chan schedEvent
	gates   []*coreGate
	doneAt  []uint64
	// skipped holds per-core stall cycles settled in bulk this chunk; each
	// runner writes only its own slot, and the evDone send/receive orders
	// those writes before the arbiter sums them into the skip telemetry.
	skipped []uint64
	pending []schedEvent
}

func newScheduler(cores int) *scheduler {
	s := &scheduler{
		events:  make(chan schedEvent, cores),
		doneAt:  make([]uint64, cores),
		skipped: make([]uint64, cores),
	}
	for i := 0; i < cores; i++ {
		s.gates = append(s.gates, &coreGate{sched: s, core: i, grant: make(chan struct{})})
	}
	return s
}

// gated wraps a shared-path Target so that the first access of each
// instruction parks the core until the arbiter serialises it into (cycle,
// coreID) order. Size never parks: the controller probes it on every access
// to resolve the address range, and AddRange probes it at build time before
// any scheduler exists.
type gated struct {
	gate  *coreGate
	under mem.Target
}

// Latency implements mem.Target.
func (t *gated) Latency(now uint64, addr uint32, bytes uint32, write bool) uint64 {
	t.gate.enter()
	return t.under.Latency(now, addr, bytes, write)
}

// LoadWord implements mem.Target.
func (t *gated) LoadWord(addr uint32) uint32 {
	t.gate.enter()
	return t.under.LoadWord(addr)
}

// StoreWord implements mem.Target.
func (t *gated) StoreWord(addr uint32, v uint32) {
	t.gate.enter()
	t.under.StoreWord(addr, v)
}

// LoadByte implements mem.Target.
func (t *gated) LoadByte(addr uint32) byte {
	t.gate.enter()
	return t.under.LoadByte(addr)
}

// StoreByte implements mem.Target.
func (t *gated) StoreByte(addr uint32, b byte) {
	t.gate.enter()
	t.under.StoreByte(addr, b)
}

// Size implements mem.Target (never parks; see type comment).
func (t *gated) Size() uint32 { return t.under.Size() }

// runChunk executes one deterministic epoch of up to n cycles starting at
// platform cycle base and returns the cycles actually covered. The return
// value is short of n only when every core halted inside the chunk, in which
// case it is trimmed to exactly where the serial kernel would have stopped
// (one past the cycle of the last HALT). The caller advances the VPCM.
func (p *Platform) runChunk(base, n uint64) uint64 {
	s := p.sched
	// Direct-dispatch fast path: a single core needs no arbitration (its
	// accesses are trivially in serial order), so step it inline with the
	// gates left transparent and skip the goroutine machinery entirely.
	if len(p.Cores) == 1 {
		c := p.Cores[0]
		cyc := base
		chunkEnd := base + n
		cyc += skipStall(c, cyc, chunkEnd, &p.skip.SkippedCycles)
		for cyc < chunkEnd && !c.Halted() {
			if p.Cfg.Blocks {
				// A lone core's accesses are trivially in serial order, so
				// translated blocks may run to the chunk boundary; the gates
				// are transparent here (the scheduler is not running).
				if bn, bsteps, bskip := c.StepBlocks(cyc, chunkEnd-cyc); bn > 0 {
					cyc += bn
					p.skip.CoreSteps += bsteps
					p.skip.EventCycles += bsteps
					p.skip.SkippedCycles += bskip
					continue
				}
			}
			c.Step(cyc)
			p.skip.CoreSteps++
			p.skip.EventCycles++
			cyc++
			if c.StallRemaining() > 0 {
				cyc += skipStall(c, cyc, chunkEnd, &p.skip.SkippedCycles)
			}
		}
		s.doneAt[0] = cyc
		end := chunkEnd
		if c.Halted() {
			end = cyc
		}
		c.AccrueIdle(end - cyc)
		return end - base
	}
	s.running = true
	for id := range p.Cores {
		go func(id int) {
			c := p.Cores[id]
			g := s.gates[id]
			cyc := base
			end := base + n
			// Stall spans touch no shared state and cannot park, so each
			// runner skips its own in bulk — including a span carried in
			// from the previous chunk — without perturbing the arbiter's
			// (cycle, coreID) commit order.
			var skipped uint64
			cyc += skipStall(c, cyc, end, &skipped)
			for cyc < end && !c.Halted() {
				if p.Cfg.Blocks {
					// Block dispatch inside the free-run phase: the issue
					// hook refreshes the gate before every instruction, so
					// shared touches park exactly as they do under Step.
					if bn, _, bskip := c.StepBlocks(cyc, end-cyc); bn > 0 {
						cyc += bn
						skipped += bskip
						continue
					}
				}
				g.cycle = cyc
				g.held = false
				c.Step(cyc)
				cyc++
				if c.StallRemaining() > 0 {
					cyc += skipStall(c, cyc, end, &skipped)
				}
			}
			s.skipped[id] = skipped
			s.events <- schedEvent{kind: evDone, core: id, cycle: cyc}
		}(id)
	}

	// Arbiter: drain park/done events; grant strictly in (cycle, coreID)
	// order, and only when no core is free-running — then no core can still
	// park at an earlier position, so the grant order equals serial order.
	running := len(p.Cores)
	done := 0
	pending := s.pending[:0]
	for running > 0 || len(pending) > 0 {
		if running == 0 {
			best := 0
			for i := 1; i < len(pending); i++ {
				if pending[i].cycle < pending[best].cycle ||
					(pending[i].cycle == pending[best].cycle && pending[i].core < pending[best].core) {
					best = i
				}
			}
			grant := pending[best]
			pending[best] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if len(pending) == 0 && done == len(p.Cores)-1 {
				// Last core standing: no other core can issue a shared
				// access this chunk, so arbitration is unnecessary — let it
				// free-run to the chunk boundary (published by the grant).
				s.gates[grant.core].solo = true
			}
			running++
			s.gates[grant.core].grant <- struct{}{}
		}
		ev := <-s.events
		running--
		switch ev.kind {
		case evPark:
			pending = append(pending, ev)
		case evDone:
			s.doneAt[ev.core] = ev.cycle
			done++
		}
	}
	s.pending = pending[:0]
	s.running = false
	for _, g := range s.gates {
		g.solo = false
	}
	for i := range s.skipped {
		p.skip.SkippedCycles += s.skipped[i]
		s.skipped[i] = 0
	}

	// Halt trimming: the serial kernel stops as soon as every core has
	// halted, so when this chunk ran everything to completion the epoch ends
	// at the latest cycle any core still executed, not at the chunk
	// boundary. Cores that stopped earlier are then charged the idle cycles
	// they would have accumulated being stepped while halted.
	end := base + n
	if p.AllHalted() {
		end = base
		for _, d := range s.doneAt {
			if d > end {
				end = d
			}
		}
	}
	for i, c := range p.Cores {
		c.AccrueIdle(end - s.doneAt[i])
	}
	return end - base
}
