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
