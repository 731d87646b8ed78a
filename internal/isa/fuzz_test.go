package isa

import "testing"

// FuzzEncodeDecodeRoundTrip asserts that every 32-bit word that decodes to a
// valid instruction re-encodes to exactly the same word, and that decoding
// is stable across the roundtrip. Every instruction format uses the full
// word, so the encoding must be lossless for the emulator, the assembler
// and the disassembler to agree.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	// One seed per format family.
	f.Add(uint32(0)) // R-type add r0,r0,r0
	f.Add(Encode(Instr{Op: OpRType, Funct: FnMul, Rd: 3, Rs1: 4, Rs2: 5}))
	f.Add(Encode(Instr{Op: OpAddi, Rd: 1, Rs1: 2, Imm: -7}))
	f.Add(Encode(Instr{Op: OpLui, Rd: 9, Imm: 0x1000}))
	f.Add(Encode(Instr{Op: OpJal, Imm: -123}))
	f.Add(Encode(Instr{Op: OpBne, Rs1: 1, Rs2: 2, Imm: 12}))
	f.Add(Encode(Instr{Op: OpLw, Rd: 6, Rs1: 7, Imm: 40}))
	f.Add(Encode(Instr{Op: OpSwap, Rd: 8, Rs1: 9, Imm: 0}))
	f.Add(Encode(Instr{Op: OpHalt}))
	f.Fuzz(func(t *testing.T, w uint32) {
		in := Decode(w)
		if Validate(in) != nil {
			return // undefined encodings are allowed to be lossy
		}
		w2 := Encode(in)
		if w2 != w {
			t.Fatalf("Encode(Decode(%#08x)) = %#08x; instr %v", w, w2, in)
		}
		if again := Decode(w2); again != in {
			t.Fatalf("Decode unstable for %#08x: %v then %v", w, in, again)
		}
	})
}
