package isa

// This file defines the straight-line basic-block discovery used by the
// cpu package's opcode-switched block dispatch. Discovery is a pure function
// of the instruction words, so it lives here next to Decode and is fuzzed
// against it (FuzzBlockDiscovery).

// BlockMax caps the number of instructions in one discovered block. Longer
// straight-line runs simply split into consecutive blocks; the cap bounds
// both translation latency and the cost of re-translating after a
// self-modifying store.
const BlockMax = 64

// BlockEnd reports why block discovery stopped.
type BlockEnd int

// Block end reasons.
const (
	// EndControl: the block's final instruction is a control transfer
	// (conditional branch, JAL, JALR or HALT). The instruction is included;
	// execution continues at a pc the instruction itself determines.
	EndControl BlockEnd = iota
	// EndIllegal: the next word does not decode to an executable
	// instruction (undefined opcode, or an R-type with an undefined funct).
	// The block stops before it so the interpreter raises the exact fault.
	EndIllegal
	// EndUnmapped: the next fetch address left the readable window.
	EndUnmapped
	// EndLimit: BlockMax instructions were scanned without another reason.
	EndLimit
)

// String returns the reason name.
func (e BlockEnd) String() string {
	switch e {
	case EndControl:
		return "control"
	case EndIllegal:
		return "illegal"
	case EndUnmapped:
		return "unmapped"
	case EndLimit:
		return "limit"
	}
	return "end(?)"
}

// IsControl reports whether op redirects the fetch stream: conditional
// branches, JAL, JALR and HALT all end a basic block.
func (op Opcode) IsControl() bool {
	return op.IsBranch() || op == OpJal || op == OpJalr || op == OpHalt
}

// Executable reports whether the decoded instruction would execute without
// an illegal-instruction fault: a defined opcode, and for R-type a defined
// funct. Register fields cannot be out of range by construction (5-bit
// encodings), so this is exactly the interpreter's fault condition.
func (in Instr) Executable() bool {
	if !in.Op.Valid() {
		return false
	}
	return in.Op != OpRType || in.Funct.Valid()
}

// ScanBlock discovers the straight-line block starting at pc, appending the
// decoded instructions to dst (which may be nil) and returning the extended
// slice plus the end reason. fetch reads the aligned word at an address and
// reports whether the address is readable; it must be a pure read (no timing
// or statistics side effects).
//
// The block covers consecutive words pc, pc+4, pc+8, ... and ends with the
// first control transfer (included), before the first non-executable word
// (excluded — the interpreter must raise that fault itself), at the edge of
// the readable window, or after BlockMax instructions. An unaligned pc or an
// unreadable/non-executable first word yields an empty block.
func ScanBlock(pc uint32, fetch func(addr uint32) (uint32, bool), dst []Instr) ([]Instr, BlockEnd) {
	if pc%4 != 0 {
		return dst, EndUnmapped
	}
	for n := 0; n < BlockMax; n++ {
		addr := pc + uint32(n)*4
		if addr < pc { // wrapped the 32-bit address space
			return dst, EndUnmapped
		}
		w, ok := fetch(addr)
		if !ok {
			return dst, EndUnmapped
		}
		in := Decode(w)
		if !in.Executable() {
			return dst, EndIllegal
		}
		dst = append(dst, in)
		if in.Op.IsControl() {
			return dst, EndControl
		}
	}
	return dst, EndLimit
}
