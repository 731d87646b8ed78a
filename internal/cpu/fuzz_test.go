package cpu

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/isa"
	"thermemu/internal/mem"
)

// fuzzProgram builds the program FuzzStepBlocks runs from raw fuzz bytes:
// a prologue pointing r1 at private data and r2 at the shared range, the
// executable blocks isa.ScanBlock finds in the fuzz words (a word no block
// can start at is dropped), and a halt fence.
func fuzzProgram(data []byte) []uint32 {
	words := make([]uint32, len(data)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	prog := []uint32{
		isa.Encode(isa.Instr{Op: isa.OpOri, Rd: 1, Imm: 0x4000}),
		isa.Encode(isa.Instr{Op: isa.OpLui, Rd: 2, Imm: sharedBase >> 16}),
	}
	fetch := func(a uint32) (uint32, bool) {
		if i := a / 4; i < uint32(len(words)) {
			return words[i], true
		}
		return 0, false
	}
	for pc := uint32(0); pc/4 < uint32(len(words)); {
		block, _ := isa.ScanBlock(pc, fetch, nil)
		if len(block) == 0 {
			pc += 4
			continue
		}
		for _, in := range block {
			prog = append(prog, isa.Encode(in))
		}
		pc += 4 * uint32(len(block))
	}
	return append(prog, isa.Encode(isa.Instr{Op: isa.OpHalt}))
}

// FuzzStepBlocks runs fuzz programs on twin cores, one stepped by Step
// alone and one driven the way the emulation kernel drives it: StepBlocks
// with a random window and sharedBefore bound, and Step whenever StepBlocks
// runs nothing. The core is uncached or cached with random hit latencies.
// After every call both cores must agree on registers, pc, stall, state
// and core counters, and at the end also on the memory system's counters
// and contents.
func FuzzStepBlocks(f *testing.F) {
	for _, src := range []string{clipSource, allOpsSource(), `
	loop:
		sw   r3, 0(r1)
		lw   r4, 0(r1)
		add  r3, r3, r4
		addi r3, r3, 1
		bne  r3, r0, loop
	`} {
		im, err := asm.Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(im.Sections[0].Data, uint64(len(src)))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) > 4*1024 {
			return
		}
		prog := fuzzProgram(data)
		code := make([]byte, 4*len(prog))
		for i, w := range prog {
			binary.LittleEndian.PutUint32(code[4*i:], w)
		}
		im := &asm.Image{Sections: []asm.Section{{Addr: 0, Data: code}}}
		rng := rand.New(rand.NewPCG(seed, seed>>32))
		cached := rng.IntN(3) > 0
		icHit, dcHit := rng.Uint64N(3), rng.Uint64N(4)
		build := func() (*Core, *mem.Memory) {
			var (
				c    *Core
				priv *mem.Memory
			)
			if cached {
				c, priv = newCachedCore(t, icHit, dcHit)
			} else {
				c, priv = newUncachedCore(t)
			}
			load(c, priv, im)
			return c, priv
		}
		ref, refMem := build()
		blk, blkMem := build()
		blk.EnableBlocks()

		const cycles = 3000
		for now := uint64(0); now < cycles; {
			max := 1 + rng.Uint64N(80)
			sharedBefore := uint64(WakeNever)
			if rng.IntN(4) > 0 {
				sharedBefore = now + rng.Uint64N(80)
			}
			n, _, _ := blk.StepBlocks(now, max, sharedBefore)
			if n > max {
				t.Fatalf("StepBlocks(%d, %d, %d) ran %d cycles", now, max, sharedBefore, n)
			}
			if n == 0 {
				blk.Step(now)
				n = 1
			}
			for k := uint64(0); k < n; k++ {
				ref.Step(now + k)
			}
			now += n
			if ref.regs != blk.regs || ref.pc != blk.pc || ref.stall != blk.stall ||
				ref.state != blk.state || ref.stats != blk.stats {
				compareCores(t, ref, refMem, blk, blkMem)
			}
			if (ref.Fault() == nil) != (blk.Fault() == nil) ||
				ref.Fault() != nil && ref.Fault().Error() != blk.Fault().Error() {
				t.Errorf("fault: interpreter %v, blocks %v", ref.Fault(), blk.Fault())
			}
			if t.Failed() {
				t.Fatalf("diverged by cycle %d (cached %v, hit latencies %d/%d)", now, cached, icHit, dcHit)
			}
		}
		compareCores(t, ref, refMem, blk, blkMem)
	})
}
