package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermemu/internal/asm"
)

// padTo pads src with comment lines and blank lines to exactly n bytes.
func padTo(src string, n int) string {
	comment := "#" + strings.Repeat("x", 98) + "\n"
	src += strings.Repeat(comment, (n-len(src))/len(comment))
	return src + strings.Repeat("\n", n-len(src))
}

// TestLoadCapsFileSize: a scenario file of MaxFileBytes loads; one byte
// more is refused.
func TestLoadCapsFileSize(t *testing.T) {
	base, err := os.ReadFile(filepath.Join(scenariosDir, "matrix.scn"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, n := range []int{MaxFileBytes, MaxFileBytes + 1} {
		path := filepath.Join(dir, "big.scn")
		if err := os.WriteFile(path, []byte(padTo(string(base), n)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if n == MaxFileBytes && err != nil {
			t.Errorf("%d-byte file: %v", n, err)
		}
		if n > MaxFileBytes && (err == nil || !strings.Contains(err.Error(), "exceeds")) {
			t.Errorf("%d-byte file: err = %v, want a size error", n, err)
		}
	}
}

// TestLoadRejectsHugeSpace: one [program] line asking for 64 MiB fails
// the lint with the assembler's structured error instead of allocating.
func TestLoadRejectsHugeSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.scn")
	src := "thermemu-scenario v1\n[platform]\ncores = 1\n[program]\n\thalt\n\t.space 0x4000000\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	var ae *asm.Error
	if !errors.As(err, &ae) || ae.Line != 2 {
		t.Fatalf("err = %v, want an *asm.Error on program line 2", err)
	}
}
