// Package asm implements a two-pass assembler for the R32 ISA.
//
// The assembler plays the role of the cross-compilation toolchain (Xilinx EDK
// gcc/g++) in the original framework: the paper's workloads are provided as
// R32 assembly sources, assembled to binary images, and loaded into the
// private memory of each emulated core (EDK "can load different binaries on
// each processor"; so can we).
//
// Syntax overview:
//
//	; comment        # comment
//	label:
//	    addi  r1, r0, 10
//	    lw    r2, 4(r1)        ; displacement addressing
//	    sw    r2, buf(r0)      ; symbols usable in expressions
//	    beq   r1, r2, done
//	    .equ  N, 16
//	    .org  0x1000
//	    .word 1, 2, N+3        ; expressions support + and - only
//	    .space 64
//
// Pseudo-instructions: nop, li, la, mv, b, ret, call, subi, bgt, ble,
// bgtu, bleu, inc, dec. String literals (.ascii/.asciz) must not contain
// ';', '#' or ':' — comment stripping and label scanning run before
// directive parsing.
package asm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"thermemu/internal/isa"
)

// Section is a contiguous run of assembled bytes at a fixed address.
type Section struct {
	Addr uint32
	Data []byte
}

// Image is the result of assembling a source file: a sparse set of sections
// plus the entry point (address of the first instruction assembled).
type Image struct {
	Sections []Section
	Entry    uint32
	Symbols  map[string]uint32
}

// End returns one past the highest address occupied by the image.
func (im *Image) End() uint32 {
	var end uint32
	for _, s := range im.Sections {
		if e := s.Addr + uint32(len(s.Data)); e > end {
			end = e
		}
	}
	return end
}

// MaxImageBytes bounds the bytes one source may emit (overwrites
// included). A .space, .align or emission that would pass it is an *Error,
// reported before any of its bytes are stored, so no source can make the
// assembler allocate without limit. The corpus programs emit a few KB.
const MaxImageBytes = 16 << 20

// Error describes an assembly failure at a specific source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// pageSize is the granule of the assembler's sparse image: a program and
// a data block at a far .org occupy a handful of pages.
const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// page is one pageSize-aligned span of the image and a mask of the bytes
// written in it, so later writes to an address still win and unwritten
// bytes are not part of any section.
type page struct {
	data    [pageSize]byte
	written [pageSize / 64]uint64
}

type assembler struct {
	symbols map[string]uint32
	pages   map[uint32]*page // sparse byte image, keyed by addr >> pageBits
	last    *page            // the page the previous byte went to
	lastKey uint32
	emitted uint64 // bytes emitted this pass, bounded by MaxImageBytes
	pc      uint32
	entry   uint32
	haveEnt bool
	pass    int
	line    int
}

// Assemble translates R32 assembly source into a binary image.
func Assemble(src string) (*Image, error) {
	a := &assembler{symbols: make(map[string]uint32)}
	for pass := 1; pass <= 2; pass++ {
		a.pass = pass
		a.pc = 0
		a.emitted = 0
		a.haveEnt = false
		if pass == 2 {
			a.pages = make(map[uint32]*page)
		}
		rest, more := src, true
		for a.line = 1; more; a.line++ {
			var raw string
			raw, rest, more = strings.Cut(rest, "\n")
			if err := a.doLine(raw); err != nil {
				return nil, err
			}
		}
	}
	return a.image(), nil
}

// MustAssemble is like Assemble but panics on error. It is intended for
// programmatically generated sources that are expected to be well-formed.
func MustAssemble(src string) *Image {
	im, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return im
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		return s[:i]
	}
	return s
}

func (a *assembler) doLine(raw string) error {
	s := strings.TrimSpace(stripComment(raw))
	if s == "" {
		return nil
	}
	// Labels (possibly several on one line).
	for {
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		label := strings.TrimSpace(s[:i])
		if !isIdent(label) {
			return a.errf("invalid label %q", label)
		}
		if a.pass == 1 {
			if _, dup := a.symbols[label]; dup {
				return a.errf("duplicate symbol %q", label)
			}
			a.symbols[label] = a.pc
		}
		s = strings.TrimSpace(s[i+1:])
	}
	if s == "" {
		return nil
	}
	mnem, rest, _ := strings.Cut(s, " ")
	mnem = strings.ToLower(mnem)
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(mnem, ".") {
		return a.directive(mnem, rest)
	}
	return a.instruction(mnem, rest)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == '.' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (a *assembler) directive(name, rest string) error {
	switch name {
	case ".equ":
		sym, val, ok := strings.Cut(rest, ",")
		if !ok || strings.Contains(val, ",") {
			return a.errf(".equ needs NAME, value")
		}
		sym = strings.TrimSpace(sym)
		if !isIdent(sym) {
			return a.errf("invalid .equ name %q", sym)
		}
		v, err := a.eval(val)
		if err != nil {
			return err
		}
		if a.pass == 1 {
			if _, dup := a.symbols[sym]; dup {
				return a.errf("duplicate symbol %q", sym)
			}
		}
		a.symbols[sym] = v
		return nil
	case ".org":
		v, err := a.eval(rest)
		if err != nil {
			return err
		}
		a.pc = v
		return nil
	case ".word", ".byte":
		size := uint64(4)
		if name == ".byte" {
			size = 1
		}
		// Every comma separates two operands, so "1," is an error.
		for more := rest != ""; more; {
			var op string
			op, rest, more = strings.Cut(rest, ",")
			v, err := a.eval(op)
			if err != nil {
				return err
			}
			if err := a.grow(size); err != nil {
				return err
			}
			if size == 4 {
				a.emitWord(v)
			} else {
				a.emitByte(byte(v))
			}
		}
		return nil
	case ".space":
		v, err := a.eval(rest)
		if err != nil {
			return err
		}
		return a.zeros(v)
	case ".ascii", ".asciz":
		str := strings.TrimSpace(rest)
		if len(str) < 2 || str[0] != '"' || str[len(str)-1] != '"' {
			return a.errf("%s requires a double-quoted string", name)
		}
		body := str[1 : len(str)-1]
		i := 0
		for i < len(body) {
			ch := body[i]
			if ch == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					ch = '\n'
				case 't':
					ch = '\t'
				case '0':
					ch = 0
				case '\\':
					ch = '\\'
				case '"':
					ch = '"'
				default:
					return a.errf("unknown escape \\%c", body[i])
				}
			}
			if err := a.grow(1); err != nil {
				return err
			}
			a.emitByte(ch)
			i++
		}
		if name == ".asciz" {
			if err := a.grow(1); err != nil {
				return err
			}
			a.emitByte(0)
		}
		return nil
	case ".align":
		v, err := a.eval(rest)
		if err != nil {
			return err
		}
		if v == 0 || v&(v-1) != 0 {
			return a.errf(".align requires a power of two, got %d", v)
		}
		return a.zeros((v - a.pc%v) % v)
	default:
		return a.errf("unknown directive %s", name)
	}
}

// eval evaluates an expression of the form term (('+'|'-') term)* where a
// term is a number (decimal, 0x-hex, 'c' char) or a symbol. On pass 1,
// unresolved symbols evaluate to 0 (sizes must not depend on them).
func (a *assembler) eval(expr string) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, a.errf("empty expression")
	}
	var total int64
	sign := int64(1)
	i := 0
	expectTerm := true
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case expectTerm && c == '-':
			sign = -sign
			i++
		case expectTerm && c == '+':
			i++
		case !expectTerm && (c == '+' || c == '-'):
			if c == '-' {
				sign = -1
			} else {
				sign = 1
			}
			expectTerm = true
			i++
		case expectTerm:
			j := i
			for j < len(expr) && expr[j] != '+' && expr[j] != '-' && expr[j] != ' ' && expr[j] != '\t' {
				j++
			}
			term := expr[i:j]
			v, err := a.term(term)
			if err != nil {
				return 0, err
			}
			total += sign * int64(v)
			sign = 1
			expectTerm = false
			i = j
		default:
			return 0, a.errf("unexpected %q in expression %q", string(c), expr)
		}
	}
	if expectTerm {
		return 0, a.errf("expression %q ends with an operator", expr)
	}
	return uint32(total), nil
}

func (a *assembler) term(t string) (uint32, error) {
	if len(t) >= 3 && t[0] == '\'' && t[len(t)-1] == '\'' {
		body := t[1 : len(t)-1]
		if len(body) == 1 {
			return uint32(body[0]), nil
		}
		return 0, a.errf("invalid char literal %s", t)
	}
	// An identifier never parses as a number (none starts with a digit),
	// so symbols skip strconv and the error value it would allocate.
	if isIdent(t) {
		if v, ok := a.symbols[t]; ok {
			return v, nil
		}
		if a.pass == 1 {
			return 0, nil // forward reference; resolved on pass 2
		}
		return 0, a.errf("undefined symbol %q", t)
	}
	if v, err := strconv.ParseInt(t, 0, 64); err == nil {
		return uint32(v), nil
	}
	if v, err := strconv.ParseUint(t, 0, 64); err == nil {
		return uint32(v), nil
	}
	return 0, a.errf("cannot parse term %q", t)
}

// grow accounts n more emitted bytes, refusing to pass MaxImageBytes.
func (a *assembler) grow(n uint64) error {
	if a.emitted+n > MaxImageBytes {
		return a.errf("image would exceed %d bytes (%d emitted, %d more)", MaxImageBytes, a.emitted, n)
	}
	a.emitted += n
	return nil
}

// zeros emits n zero bytes (.space and .align padding).
func (a *assembler) zeros(n uint32) error {
	if err := a.grow(uint64(n)); err != nil {
		return err
	}
	if a.pass == 1 {
		a.pc += n
		return nil
	}
	for ; n > 0; n-- {
		a.emitByte(0)
	}
	return nil
}

func (a *assembler) emitByte(b byte) {
	if a.pass == 2 {
		key := a.pc >> pageBits
		if a.last == nil || a.lastKey != key {
			p := a.pages[key]
			if p == nil {
				p = new(page)
				a.pages[key] = p
			}
			a.last, a.lastKey = p, key
		}
		off := a.pc & (pageSize - 1)
		a.last.data[off] = b
		a.last.written[off/64] |= 1 << (off % 64)
	}
	a.pc++
}

func (a *assembler) emitWord(w uint32) {
	a.emitByte(byte(w))
	a.emitByte(byte(w >> 8))
	a.emitByte(byte(w >> 16))
	a.emitByte(byte(w >> 24))
}

func (a *assembler) emitInstr(in isa.Instr) error {
	if !a.haveEnt {
		a.entry = a.pc
		a.haveEnt = true
	}
	if a.pc%4 != 0 {
		return a.errf("instruction at unaligned address 0x%x", a.pc)
	}
	if err := a.grow(4); err != nil {
		return err
	}
	if a.pass == 2 {
		if err := isa.Validate(in); err != nil {
			return a.errf("%v", err)
		}
		a.emitWord(isa.Encode(in))
		return nil
	}
	a.pc += 4
	return nil
}

func (a *assembler) reg(s string) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return uint8(n), nil
		}
	}
	return 0, a.errf("invalid register %q", s)
}

// memOperand parses "disp(reg)" or "(reg)" or "disp" (implies r0 base).
func (a *assembler) memOperand(s string) (base uint8, disp int32, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		v, err := a.eval(s)
		return 0, int32(v), err
	}
	if !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf("malformed memory operand %q", s)
	}
	base, err = a.reg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	dispStr := strings.TrimSpace(s[:open])
	if dispStr == "" {
		return base, 0, nil
	}
	v, err := a.eval(dispStr)
	return base, int32(v), err
}

// branchOffset converts a target expression to a word offset from pc+4.
func (a *assembler) branchOffset(target string) (int32, error) {
	v, err := a.eval(target)
	if err != nil {
		return 0, err
	}
	if a.pass == 1 {
		return 0, nil
	}
	diff := int64(int32(v)) - int64(int32(a.pc+4))
	if diff%4 != 0 {
		return 0, a.errf("branch target 0x%x not word aligned", v)
	}
	return int32(diff / 4), nil
}

var rtypeByName = map[string]isa.Funct{
	"add": isa.FnAdd, "sub": isa.FnSub, "and": isa.FnAnd, "or": isa.FnOr,
	"xor": isa.FnXor, "nor": isa.FnNor, "sll": isa.FnSll, "srl": isa.FnSrl,
	"sra": isa.FnSra, "slt": isa.FnSlt, "sltu": isa.FnSltu, "mul": isa.FnMul,
	"div": isa.FnDiv, "divu": isa.FnDivu, "rem": isa.FnRem, "remu": isa.FnRemu,
}

var itypeByName = map[string]isa.Opcode{
	"addi": isa.OpAddi, "andi": isa.OpAndi, "ori": isa.OpOri,
	"xori": isa.OpXori, "slti": isa.OpSlti, "sltiu": isa.OpSltiu,
	"slli": isa.OpSlli, "srli": isa.OpSrli, "srai": isa.OpSrai,
}

var branchByName = map[string]isa.Opcode{
	"beq": isa.OpBeq, "bne": isa.OpBne, "blt": isa.OpBlt,
	"bge": isa.OpBge, "bltu": isa.OpBltu, "bgeu": isa.OpBgeu,
}

var memByName = map[string]isa.Opcode{
	"lw": isa.OpLw, "lb": isa.OpLb, "lbu": isa.OpLbu,
	"sw": isa.OpSw, "sb": isa.OpSb, "swap": isa.OpSwap,
}

// swappedBranchByName maps the pseudo-branches to the branch they become
// with their register operands swapped.
var swappedBranchByName = map[string]isa.Opcode{
	"bgt": isa.OpBlt, "ble": isa.OpBge, "bgtu": isa.OpBltu, "bleu": isa.OpBgeu,
}

func (a *assembler) instruction(mnem, rest string) error {
	var buf [4]string
	ops := splitMemAware(rest, &buf)
	n := len(ops)
	need := func(k int) error {
		if n != k {
			return a.errf("%s expects %d operands, got %d", mnem, k, n)
		}
		return nil
	}
	if fn, ok := rtypeByName[mnem]; ok {
		if err := need(3); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		rs1, err := a.reg(ops[1])
		if err != nil {
			return err
		}
		rs2, err := a.reg(ops[2])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpRType, Funct: fn, Rd: rd, Rs1: rs1, Rs2: rs2})
	}
	if op, ok := itypeByName[mnem]; ok {
		if err := need(3); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		rs1, err := a.reg(ops[1])
		if err != nil {
			return err
		}
		v, err := a.eval(ops[2])
		if err != nil {
			return err
		}
		imm := int32(v)
		if op.ZeroExtImm() {
			imm = int32(v & 0xFFFF)
			if a.pass == 2 && int64(v) > 0xFFFF && int64(int32(v)) > 0xFFFF {
				return a.errf("%s: immediate 0x%x exceeds 16 bits", mnem, v)
			}
		}
		return a.emitInstr(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
	}
	if op, ok := branchByName[mnem]; ok {
		if err := need(3); err != nil {
			return err
		}
		rs1, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		rs2, err := a.reg(ops[1])
		if err != nil {
			return err
		}
		off, err := a.branchOffset(ops[2])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: op, Rs1: rs1, Rs2: rs2, Imm: off})
	}
	if op, ok := memByName[mnem]; ok {
		if err := need(2); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		base, disp, err := a.memOperand(ops[1])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: op, Rd: rd, Rs1: base, Imm: disp})
	}
	switch mnem {
	case "lui":
		if err := need(2); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		v, err := a.eval(ops[1])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpLui, Rd: rd, Imm: int32(v & 0xFFFF)})
	case "jal", "call":
		if err := need(1); err != nil {
			return err
		}
		off, err := a.branchOffset(ops[0])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpJal, Imm: off})
	case "jalr":
		if err := need(3); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		rs1, err := a.reg(ops[1])
		if err != nil {
			return err
		}
		v, err := a.eval(ops[2])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpJalr, Rd: rd, Rs1: rs1, Imm: int32(v)})
	case "halt":
		if err := need(0); err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpHalt})
	// --- pseudo-instructions ---
	case "nop":
		return a.emitInstr(isa.Instr{Op: isa.OpAddi})
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		rs, err := a.reg(ops[1])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpAddi, Rd: rd, Rs1: rs})
	case "li", "la":
		if err := need(2); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		v, err := a.eval(ops[1])
		if err != nil {
			return err
		}
		// Always two instructions so that pass-1 sizing is stable.
		if err := a.emitInstr(isa.Instr{Op: isa.OpLui, Rd: rd, Imm: int32(v >> 16)}); err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpOri, Rd: rd, Rs1: rd, Imm: int32(v & 0xFFFF)})
	case "b":
		if err := need(1); err != nil {
			return err
		}
		off, err := a.branchOffset(ops[0])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpBeq, Imm: off})
	case "ret":
		if err := need(0); err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpJalr, Rd: 0, Rs1: isa.LinkReg})
	case "subi":
		if err := need(3); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		rs1, err := a.reg(ops[1])
		if err != nil {
			return err
		}
		v, err := a.eval(ops[2])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpAddi, Rd: rd, Rs1: rs1, Imm: -int32(v)})
	case "inc":
		if err := need(1); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpAddi, Rd: rd, Rs1: rd, Imm: 1})
	case "dec":
		if err := need(1); err != nil {
			return err
		}
		rd, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: isa.OpAddi, Rd: rd, Rs1: rd, Imm: -1})
	case "bgt", "ble", "bgtu", "bleu":
		if err := need(3); err != nil {
			return err
		}
		rs1, err := a.reg(ops[0])
		if err != nil {
			return err
		}
		rs2, err := a.reg(ops[1])
		if err != nil {
			return err
		}
		off, err := a.branchOffset(ops[2])
		if err != nil {
			return err
		}
		return a.emitInstr(isa.Instr{Op: swappedBranchByName[mnem], Rs1: rs2, Rs2: rs1, Imm: off})
	}
	return a.errf("unknown mnemonic %q", mnem)
}

// splitMemAware splits operands on commas that are not inside parentheses,
// appending them to buf's storage (it grows past four operands only for a
// malformed line).
func splitMemAware(s string, buf *[4]string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	out := buf[:0]
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// image converts the written bytes of the sparse pages into contiguous
// sections, in address order. One buffer backs every section, and each is
// capped at its own length, so appending to one never writes into the next.
func (a *assembler) image() *Image {
	im := &Image{Entry: a.entry, Symbols: a.symbols}
	keys := make([]uint32, 0, len(a.pages))
	for k := range a.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf := make([]byte, 0, len(keys)*pageSize)
	start, end := 0, uint64(1)<<33 // no byte ends at 2^33: the first opens a section
	for _, k := range keys {
		p := a.pages[k]
		for off := uint32(0); off < pageSize; off++ {
			if p.written[off/64]&(1<<(off%64)) == 0 {
				continue
			}
			addr := uint64(k<<pageBits | off)
			if addr != end {
				im.Sections = append(im.Sections, Section{Addr: uint32(addr)})
				start = len(buf)
			}
			buf = append(buf, p.data[off])
			im.Sections[len(im.Sections)-1].Data = buf[start:len(buf):len(buf)]
			end = addr + 1
		}
	}
	return im
}
