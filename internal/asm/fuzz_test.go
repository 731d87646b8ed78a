package asm

import "testing"

// FuzzAssemble feeds arbitrary source text to the assembler: it must either
// return a structured error or an image that keeps checkSections'
// invariants (address order, 32-bit address space, at most MaxImageBytes
// emitted) — never panic.
func FuzzAssemble(f *testing.F) {
	f.Add("addi r1, r0, 5\nhalt\n")
	f.Add(".org 0x100\n.word 1, 2\n")
	f.Add("loop: bne r1, r0, loop\n")
	f.Add(".equ X, 5+3\nli r2, X\n")
	f.Add(".asciz \"hi\"\n")
	f.Add(".space 0x4000000\n")
	f.Add(".org 0xFFFFFFFE\n.word 1\n")
	f.Add(".byte 1\n.align 0x80000000\n")
	f.Fuzz(func(t *testing.T, src string) {
		im, err := Assemble(src)
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Fatalf("unstructured error type %T: %v", err, err)
			}
			return
		}
		checkSections(t, im)
	})
}
