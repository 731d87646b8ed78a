// Command r32 is the developer toolchain for the framework's R32 ISA — the
// counterpart of the gcc/EDK toolchain in the paper's flow, used to author
// and debug custom workloads before loading them into the emulated MPSoC.
//
//	r32 asm [-o prog.hex] prog.s         assemble to the hex image format
//	r32 dis  prog.hex                    disassemble an image
//	r32 run [-trace] [-max N] prog.s     execute on a single-core platform
//
// The hex image format is line-oriented: "ADDR: WORD" in hexadecimal, plus
// an "entry: ADDR" header — trivially diffable and easy to post-process.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
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
	return writeHex(w, im)
}

func writeHex(w *os.File, im *asm.Image) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "entry: %08x\n", im.Entry)
	for _, s := range im.Sections {
		for i := 0; i+4 <= len(s.Data); i += 4 {
			word := uint32(s.Data[i]) | uint32(s.Data[i+1])<<8 |
				uint32(s.Data[i+2])<<16 | uint32(s.Data[i+3])<<24
			fmt.Fprintf(bw, "%08x: %08x\n", s.Addr+uint32(i), word)
		}
		// Trailing bytes (non-word-multiple sections).
		for i := len(s.Data) &^ 3; i < len(s.Data); i++ {
			fmt.Fprintf(bw, "%08x: byte %02x\n", s.Addr+uint32(i), s.Data[i])
		}
	}
	return bw.Flush()
}

func readHex(path string) (entry uint32, words map[uint32]uint32, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	words = map[uint32]uint32{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if strings.HasPrefix(text, "entry:") {
			if _, err := fmt.Sscanf(text, "entry: %x", &entry); err != nil {
				return 0, nil, fmt.Errorf("line %d: bad entry: %v", line, err)
			}
			continue
		}
		var addr, word uint32
		if _, err := fmt.Sscanf(text, "%x: %x", &addr, &word); err != nil {
			return 0, nil, fmt.Errorf("line %d: %v", line, err)
		}
		words[addr] = word
	}
	return entry, words, sc.Err()
}

func cmdDis(args []string) error {
	fs := flag.NewFlagSet("dis", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("dis: need exactly one hex image")
	}
	entry, words, err := readHex(fs.Arg(0))
	if err != nil {
		return err
	}
	addrs := make([]uint32, 0, len(words))
	for a := range words {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	fmt.Printf("entry: %08x\n", entry)
	for _, a := range addrs {
		w := words[a]
		in := isa.Decode(w)
		if isa.Validate(in) == nil {
			fmt.Printf("%08x: %08x  %s\n", a, w, in)
		} else {
			fmt.Printf("%08x: %08x  .word 0x%08x\n", a, w, w)
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	trace := fs.Bool("trace", false, "print every committed instruction")
	maxCycles := fs.Uint64("max", 10_000_000, "cycle budget")
	dual := fs.Bool("vliw", false, "run on the dual-issue VLIW core")
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
	if *dual {
		p.Cores[0].SetIssueWidth(2)
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
	fmt.Printf("-- active %d, stall %d, idle %d, loads %d, stores %d, paired %d\n",
		st.ActiveCycles, st.StallCycles, st.IdleCycles, st.Loads, st.Stores, st.Paired)
	// Non-zero registers.
	for r := uint8(1); r < isa.NumRegs; r++ {
		if v := p.Cores[0].Reg(r); v != 0 {
			fmt.Printf("-- r%-2d = 0x%08x (%d)\n", r, v, int32(v))
		}
	}
	return nil
}
