package emu_test

// Ordering tests for the run-ahead serial kernel: a core alone at the
// front of the (cycle, coreID) order runs far ahead on private work, and
// every access another core could observe must still commit in StepOne's
// interleaving.

import (
	"fmt"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/emu"
	"thermemu/internal/golden"
)

// runAheadProgram: core 0 stores to 64 shared lines, runs a long private
// load/store loop, then publishes its result and a flag in shared memory;
// core 1 streams shared loads while it spins on the flag, then copies the
// result. Both then meet at the barrier, each stores to the other core's
// register in the sniffer-control range (a device access, which must
// commit in order like any other), and finish with a short private tail.
// With a cacheable shared range the private loop evicts core 0's dirty
// shared lines, so its write-backs contend with core 1's loads on the bus.
const runAheadProgram = `
	li   r20, 0x22000000
	lw   r21, 0(r20)          ; core id
	li   r1, 0x10000000       ; shared flag / result
	li   r7, 0x20000000       ; barrier
	li   r3, 0x21000000       ; sniffer control
	bne  r21, r0, waiter
	li   r2, 64
dirty:
	slli r4, r2, 4
	add  r4, r4, r1
	sw   r2, 0x100(r4)
	subi r2, r2, 1
	bne  r2, r0, dirty
	li   r2, 1000
work:
	andi r4, r2, 0xff
	slli r4, r4, 4
	sw   r2, 0x1000(r4)
	lw   r5, 0x1000(r4)
	add  r6, r6, r5
	subi r2, r2, 1
	bne  r2, r0, work
	sw   r6, 4(r1)
	addi r8, r0, 1
	sw   r8, 0(r1)
	beq  r0, r0, sync
waiter:
	addi r13, r13, 16
	andi r13, r13, 0x1ff0
	add  r14, r13, r1
	lw   r12, 0x2000(r14)
	lw   r9, 0(r1)
	beq  r9, r0, waiter
	lw   r10, 4(r1)
	sw   r10, 8(r1)
sync:
	lw   r8, 0(r7)
	sw   r0, 0(r7)
spin:
	lw   r9, 0(r7)
	beq  r9, r8, spin
	xori r11, r21, 1
	slli r11, r11, 2
	add  r11, r11, r3
	sw   r0, 0(r11)           ; the other core's sniffer-control register
	li   r2, 20
tail:
	lw   r5, 0x1000(r0)
	subi r2, r2, 1
	bne  r2, r0, tail
	halt
`

// runAheadVariant selects what the platform makes observable.
type runAheadVariant struct {
	name   string
	cached bool // cacheable shared range: private misses write back shared lines
}

func runAheadPlatform(t *testing.T, v runAheadVariant) *emu.Platform {
	t.Helper()
	cfg := emu.DefaultConfig(2)
	cfg.SharedCacheable = v.cached
	p := emu.MustNew(cfg)
	im := asm.MustAssemble(runAheadProgram)
	for c := range p.Cores {
		if err := p.LoadProgram(c, im); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestRunAheadOrdering(t *testing.T) {
	const maxCycles = 1_000_000
	for _, v := range []runAheadVariant{
		{name: "plain"},
		{name: "cached-shared", cached: true},
	} {
		for _, step := range []uint64{1, 64, maxCycles} {
			v, step := v, step
			t.Run(fmt.Sprintf("%s/step=%d", v.name, step), func(t *testing.T) {
				every := uint64(256)
				if step == maxCycles {
					every = maxCycles
				}
				ref := runAheadPlatform(t, v)
				want := golden.NewJournal()
				stepOneDigest(ref, maxCycles, every, want)
				p := runAheadPlatform(t, v)
				got := golden.NewJournal()
				stepWindowDigest(p, maxCycles, every, step, got)
				for _, q := range []*emu.Platform{ref, p} {
					if !q.AllHalted() || q.Fault() != nil {
						t.Fatalf("run did not finish cleanly: halted=%v fault=%v", q.AllHalted(), q.Fault())
					}
				}
				if got := p.ReadSharedWord(8); got == 0 || got != p.ReadSharedWord(4) {
					t.Fatalf("core 1 copied %d, core 0 published %d", got, p.ReadSharedWord(4))
				}
				if d := golden.Compare(want, got); d != nil {
					t.Fatalf("run-ahead kernel diverges from StepOne: %s", d)
				}
			})
		}
	}
}
