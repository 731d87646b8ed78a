// Command r32 is the developer toolchain for the framework's R32 ISA — the
// counterpart of the gcc/EDK toolchain in the paper's flow, used to author
// and debug custom workloads before loading them into the emulated MPSoC.
//
//	r32 asm [-o prog.hex] prog.s         assemble to the hex image format
//	r32 dis  prog.hex                    disassemble an image
//	r32 run [-trace] [-max N] prog.s     execute on a single-core platform
//
// The hex image format is line-oriented: "ADDR: WORD" in hexadecimal,
// "ADDR: byte BB" for the trailing bytes of a section whose length is not
// a multiple of 4, plus an "entry: ADDR" header — trivially diffable and
// easy to post-process.
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"thermemu/internal/asm"
	"thermemu/internal/emu"
	"thermemu/internal/isa"
	"thermemu/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "asm":
		err = cmdAsm(os.Args[2:])
	case "dis":
		err = cmdDis(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "r32:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: r32 asm|dis|run ...")
	os.Exit(2)
}

// assembleFile assembles one source file of at most scenario.MaxFileBytes.
func assembleFile(path string) (*asm.Image, error) {
	src, err := scenario.ReadSource(path)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(src)
}

func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	out := fs.String("o", "", "output path (default: stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("asm: need exactly one source file")
	}
	im, err := assembleFile(fs.Arg(0))
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return toHex(im).write(w)
}

// hexImage is a parsed hex image: the entry point, and the words and the
// trailing bytes of word-misaligned section ends, by address.
type hexImage struct {
	entry uint32
	words map[uint32]uint32
	bytes map[uint32]byte
}

// toHex lists an assembled image's sections as words, with a section's
// trailing bytes (a length that is not a multiple of 4) as bytes.
func toHex(im *asm.Image) *hexImage {
	h := &hexImage{entry: im.Entry, words: map[uint32]uint32{}, bytes: map[uint32]byte{}}
	for _, s := range im.Sections {
		for i := 0; i+4 <= len(s.Data); i += 4 {
			h.words[s.Addr+uint32(i)] = binary.LittleEndian.Uint32(s.Data[i:])
		}
		for i := len(s.Data) &^ 3; i < len(s.Data); i++ {
			h.bytes[s.Addr+uint32(i)] = s.Data[i]
		}
	}
	return h
}

// addrs returns every address the image lists, words and bytes, in order.
func (h *hexImage) addrs() []uint32 {
	addrs := make([]uint32, 0, len(h.words)+len(h.bytes))
	for a := range h.words {
		addrs = append(addrs, a)
	}
	for a := range h.bytes {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs
}

// write emits the image format: an "entry: ADDR" header, then one
// "ADDR: WORD" or "ADDR: byte BB" line per address, in address order.
func (h *hexImage) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "entry: %08x\n", h.entry)
	for _, a := range h.addrs() {
		if b, ok := h.bytes[a]; ok {
			fmt.Fprintf(bw, "%08x: byte %02x\n", a, b)
		} else {
			fmt.Fprintf(bw, "%08x: %08x\n", a, h.words[a])
		}
	}
	return bw.Flush()
}

// readHex reads and parses a hex image of at most scenario.MaxFileBytes.
func readHex(path string) (*hexImage, error) {
	src, err := scenario.ReadSource(path)
	if err != nil {
		return nil, err
	}
	return parseHex(src)
}

// parseHex parses the image format write emits. Blank lines and lines
// starting with # are skipped; any other line must be exactly an entry, a
// word or a byte line, with nothing after its last field. A later line
// for the same address replaces an earlier one.
func parseHex(src string) (*hexImage, error) {
	h := &hexImage{words: map[uint32]uint32{}, bytes: map[uint32]byte{}}
	for i, text := range strings.Split(src, "\n") {
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		var err error
		switch {
		case f[0] == "entry:" && len(f) == 2:
			h.entry, err = parseHexField(f[1], 32)
		case len(f) == 2 && strings.HasSuffix(f[0], ":"):
			var addr, word uint32
			if addr, err = parseHexField(strings.TrimSuffix(f[0], ":"), 32); err == nil {
				if word, err = parseHexField(f[1], 32); err == nil {
					delete(h.bytes, addr)
					h.words[addr] = word
				}
			}
		case len(f) == 3 && strings.HasSuffix(f[0], ":") && f[1] == "byte":
			var addr, b uint32
			if addr, err = parseHexField(strings.TrimSuffix(f[0], ":"), 32); err == nil {
				if b, err = parseHexField(f[2], 8); err == nil {
					delete(h.words, addr)
					h.bytes[addr] = byte(b)
				}
			}
		default:
			err = fmt.Errorf("want \"entry: ADDR\", \"ADDR: WORD\" or \"ADDR: byte BB\", got %q", text)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
	}
	return h, nil
}

// parseHexField parses one hexadecimal field of at most bits bits.
func parseHexField(s string, bits int) (uint32, error) {
	v, err := strconv.ParseUint(s, 16, bits)
	if err != nil {
		return 0, fmt.Errorf("bad hex field %q", s)
	}
	return uint32(v), nil
}

func cmdDis(args []string) error {
	fs := flag.NewFlagSet("dis", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("dis: need exactly one hex image")
	}
	h, err := readHex(fs.Arg(0))
	if err != nil {
		return err
	}
	return disassemble(os.Stdout, h)
}

// disassemble lists the image: each word with its instruction (or as
// .word when it does not decode to one), each byte as .byte.
func disassemble(w io.Writer, h *hexImage) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "entry: %08x\n", h.entry)
	for _, a := range h.addrs() {
		if b, ok := h.bytes[a]; ok {
			fmt.Fprintf(bw, "%08x: %02x        .byte 0x%02x\n", a, b, b)
			continue
		}
		word := h.words[a]
		if in := isa.Decode(word); isa.Validate(in) == nil {
			fmt.Fprintf(bw, "%08x: %08x  %s\n", a, word, in)
		} else {
			fmt.Fprintf(bw, "%08x: %08x  .word 0x%08x\n", a, word, word)
		}
	}
	return bw.Flush()
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	trace := fs.Bool("trace", false, "print every committed instruction")
	maxCycles := fs.Uint64("max", 10_000_000, "cycle budget")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need exactly one source file")
	}
	im, err := assembleFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := emu.DefaultConfig(1)
	p, err := emu.New(cfg)
	if err != nil {
		return err
	}
	if err := p.LoadProgram(0, im); err != nil {
		return err
	}
	if *trace {
		p.Cores[0].SetTracer(func(pc, word uint32) {
			fmt.Printf("%08x: %s\n", pc, isa.Decode(word))
		})
	}
	cycles, done := p.Run(*maxCycles)
	if err := p.Fault(); err != nil {
		return err
	}
	fmt.Printf("-- halted=%v after %d cycles, %d instructions\n",
		done, cycles, p.TotalInstructions())
	st := p.Cores[0].Stats()
	fmt.Printf("-- active %d, stall %d, idle %d, loads %d, stores %d\n",
		st.ActiveCycles, st.StallCycles, st.IdleCycles, st.Loads, st.Stores)
	// Non-zero registers.
	for r := uint8(1); r < isa.NumRegs; r++ {
		if v := p.Cores[0].Reg(r); v != 0 {
			fmt.Printf("-- r%-2d = 0x%08x (%d)\n", r, v, int32(v))
		}
	}
	return nil
}
