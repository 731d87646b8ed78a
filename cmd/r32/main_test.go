package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/scenario"
)

func TestAssembleFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "halt.s")
	if err := os.WriteFile(path, []byte("halt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	im, err := assembleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Sections) != 1 || len(im.Sections[0].Data) != 4 {
		t.Fatalf("halt assembled to %+v", im.Sections)
	}
}

// TestAssembleFileCapsSize: a source one byte over scenario.MaxFileBytes
// is refused on its size before the assembler sees it.
func TestAssembleFileCapsSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.s")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(scenario.MaxFileBytes + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := assembleFile(path); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize source: err = %v, want a size refusal", err)
	}
}

// TestReadHex parses the image format write emits, and
// TestReadHexCapsSize refuses an image one byte over
// scenario.MaxFileBytes on its size before parsing it.
func TestReadHex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.hex")
	src := "entry: 00000010\n# comment\n\n00000010: 60000000\r\n00000014: 04210001\n00000018: byte 7f\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := readHex(path)
	if err != nil {
		t.Fatal(err)
	}
	want := &hexImage{entry: 0x10,
		words: map[uint32]uint32{0x10: 0x60000000, 0x14: 0x04210001},
		bytes: map[uint32]byte{0x18: 0x7f}}
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("readHex = %+v, want %+v", h, want)
	}
}

// TestParseHexRejectsTrailingText: every line kind refuses anything after
// its last field, a field that is not hexadecimal or too wide, and a
// line of no known kind.
func TestParseHexRejectsTrailingText(t *testing.T) {
	for _, line := range []string{
		"entry: 00000010 x",
		"00000010: 60000000 halt",
		"00000010: byte 61 62",
		"00000010: byte 100",
		"00000010: 1ffffffff",
		"00000010: zz",
		"0000001g: 00000000",
		"00000010 60000000",
		"00000010:",
		"halt",
	} {
		if h, err := parseHex(line + "\n"); err == nil {
			t.Errorf("parseHex(%q) = %+v, want an error", line, h)
		}
	}
}

// TestHexRoundTrip assembles a program that ends in a string, writes its
// hex image, reads it back and disassembles it: the string's bytes must
// come back as bytes, not as words decoded from the "b" of "byte".
func TestHexRoundTrip(t *testing.T) {
	im, err := asm.Assemble("addi r1, r0, 5\nhalt\n.ascii \"abc\"\n")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.hex")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := toHex(im).write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	h, err := readHex(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, toHex(im)) {
		t.Fatalf("read back %+v, want %+v", h, toHex(im))
	}
	var out strings.Builder
	if err := disassemble(&out, h); err != nil {
		t.Fatal(err)
	}
	want := `entry: 00000000
00000000: 04200005  addi r1, r0, 5
00000004: 60000000  halt
00000008: 61        .byte 0x61
00000009: 62        .byte 0x62
0000000a: 63        .byte 0x63
`
	if out.String() != want {
		t.Fatalf("dis printed\n%s\nwant\n%s", out.String(), want)
	}
}

// FuzzReadHex: parseHex never panics, and an image it accepts, written
// back out and parsed again, is the same image.
func FuzzReadHex(f *testing.F) {
	f.Add("entry: 00000010\n00000010: 60000000\n00000014: byte 61\n")
	f.Add("# comment\n\n  00000000: 04200005  \r\n")
	f.Add("00000008: byte 61 trailing\n")
	f.Add("entry: ffffffff\nffffffff: byte ff\nfffffffc: ffffffff\n")
	f.Fuzz(func(t *testing.T, src string) {
		h, err := parseHex(src)
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := h.write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := parseHex(buf.String())
		if err != nil {
			t.Fatalf("written image does not parse: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(h, again) {
			t.Fatalf("round trip changed the image:\n %+v\n %+v", h, again)
		}
	})
}

func TestReadHexCapsSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.hex")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(scenario.MaxFileBytes + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := readHex(path); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize image: err = %v, want a size refusal", err)
	}
}
