package workloads

import (
	"testing"

	"thermemu/internal/asm"
)

// matrixSource is the MATRIX program at the corpus defaults on 4 cores,
// the program every matrix scenario assembles during set-up.
func matrixSource(tb testing.TB) string {
	tb.Helper()
	src, err := matrixProgram(4, 16, 10, 64)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

var benchImage *asm.Image

// BenchmarkAssembleMatrix times one assembly of the MATRIX program.
func BenchmarkAssembleMatrix(b *testing.B) {
	src := matrixSource(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchImage = asm.MustAssemble(src)
	}
}

// TestAssembleMatrixAllocs bounds the heap allocations of assembling the
// MATRIX program: the image is built in pages and operands are parsed in
// place, so the count stays far below one allocation per source line.
func TestAssembleMatrixAllocs(t *testing.T) {
	src := matrixSource(t)
	allocs := testing.AllocsPerRun(20, func() { benchImage = asm.MustAssemble(src) })
	if allocs > 64 {
		t.Errorf("assembling the matrix program: %.0f allocs, want at most 64", allocs)
	}
}
