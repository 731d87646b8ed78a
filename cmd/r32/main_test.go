package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestReadHex parses the image format writeHex emits, and
// TestReadHexCapsSize refuses an image one byte over
// scenario.MaxFileBytes on its size before parsing it.
func TestReadHex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.hex")
	src := "entry: 00000010\n# comment\n\n00000010: 60000000\r\n00000014: 04210001\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	entry, words, err := readHex(path)
	if err != nil {
		t.Fatal(err)
	}
	if entry != 0x10 || len(words) != 2 || words[0x10] != 0x60000000 || words[0x14] != 0x04210001 {
		t.Fatalf("readHex = %#x, %#x", entry, words)
	}
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
	if _, _, err := readHex(path); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize image: err = %v, want a size refusal", err)
	}
}
