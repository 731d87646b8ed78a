package emu_test

// FuzzPlatformStep feeds random short programs to a two-core platform and
// asserts that the per-cycle sweep (StepOne), the run-ahead kernel and
// single-cycle Step(1) windows all produce bit-identical golden digests — including when the program faults, loops forever, hammers the
// barrier or races both cores over shared memory. This is the adversarial
// counterpart of the hand-written differential matrix.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/isa"
)

// fuzzImage builds a loadable image: a prologue that points registers at
// the shared memory, barrier and sniffer-control ranges (so random
// instructions actually exercise the shared paths), the fuzz payload, and
// a HALT fence.
func fuzzImage(payload []byte) *asm.Image {
	words := []uint32{
		isa.Encode(isa.Instr{Op: isa.OpLui, Rd: 1, Imm: 0x1000}), // r1 = SharedBase
		isa.Encode(isa.Instr{Op: isa.OpLui, Rd: 2, Imm: 0x2000}), // r2 = BarrierBase
		isa.Encode(isa.Instr{Op: isa.OpLui, Rd: 3, Imm: 0x2100}), // r3 = SniffBase
		isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 4, Rs1: 0, Imm: 0x40}),
	}
	for len(payload) >= 4 {
		words = append(words, binary.LittleEndian.Uint32(payload[:4]))
		payload = payload[4:]
	}
	words = append(words, isa.Encode(isa.Instr{Op: isa.OpHalt}))
	data := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[4*i:], w)
	}
	return &asm.Image{Entry: 0, Sections: []asm.Section{{Addr: 0, Data: data}}}
}

func FuzzPlatformStep(f *testing.F) {
	f.Add([]byte{})
	// A store to shared memory and a barrier arrival.
	f.Add(append(
		u32le(isa.Encode(isa.Instr{Op: isa.OpSw, Rd: 4, Rs1: 1, Imm: 0})),
		u32le(isa.Encode(isa.Instr{Op: isa.OpSw, Rd: 0, Rs1: 2, Imm: 0}))...))
	// A swap (read-modify-write) on shared memory and a backward branch.
	f.Add(append(
		u32le(isa.Encode(isa.Instr{Op: isa.OpSwap, Rd: 4, Rs1: 1, Imm: 8})),
		u32le(isa.Encode(isa.Instr{Op: isa.OpBne, Rs1: 4, Rs2: 0, Imm: -2}))...))
	// A backward-branch private loop (counter plus a private store) before
	// a shared store: the front core runs the loop ahead of the other and
	// must still commit the shared store in (cycle, coreID) order.
	f.Add(bytes.Join([][]byte{
		u32le(isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 5, Rs1: 0, Imm: 20})),
		u32le(isa.Encode(isa.Instr{Op: isa.OpSw, Rd: 5, Rs1: 0, Imm: 0x200})),
		u32le(isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: -1})),
		u32le(isa.Encode(isa.Instr{Op: isa.OpBne, Rs1: 5, Rs2: 0, Imm: -3})),
		u32le(isa.Encode(isa.Instr{Op: isa.OpSw, Rd: 4, Rs1: 1, Imm: 0})),
	}, nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 256 {
			payload = payload[:256]
		}
		im := fuzzImage(payload)
		const (
			maxCycles = 3000
			every     = 64
		)
		run := func(drive func(p *emu.Platform, tr *golden.Trace)) *golden.Trace {
			p := emu.MustNew(emu.DefaultConfig(2))
			for c := range p.Cores {
				if err := p.LoadProgram(c, im); err != nil {
					t.Fatal(err)
				}
			}
			tr := golden.NewJournal()
			drive(p, tr)
			return tr
		}
		perCycle := run(func(p *emu.Platform, tr *golden.Trace) {
			stepOneDigest(p, maxCycles, every, tr)
		})
		serial := run(func(p *emu.Platform, tr *golden.Trace) {
			p.RunDigest(maxCycles, every, tr)
		})
		single := run(func(p *emu.Platform, tr *golden.Trace) {
			stepWindowDigest(p, maxCycles, every, 1, tr)
		})
		if d := golden.Compare(perCycle, serial); d != nil {
			t.Fatalf("skip-ahead kernel diverges from per-cycle sweep: %s", d)
		}
		if d := golden.Compare(perCycle, single); d != nil {
			t.Fatalf("Step(1) windows diverge from per-cycle sweep: %s", d)
		}
	})
}

func u32le(w uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, w)
	return b
}
