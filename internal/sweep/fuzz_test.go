package sweep

import (
	"os"
	"testing"
)

// FuzzSweepSpec holds the spec parser to its contract on arbitrary input:
// it returns either a spec or an error, never both, and never panics.
func FuzzSweepSpec(f *testing.F) {
	for _, path := range []string{
		"../../examples/scenarios/noc-grid.sweep",
		"../../bench/workloads/grid.sweep",
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("")
	f.Add(Header + "\n[axis freq-mhz]\nvalues = 100, x\n")
	f.Add(Header + "\n[axis nope]\n")
	f.Add(Header + "\n[sweep]\nwarmup-windows = -1\n")
	f.Fuzz(func(t *testing.T, src string) {
		sp, err := ParseSpec(src)
		if (sp == nil) == (err == nil) {
			t.Fatalf("ParseSpec(%q) = (%v, %v): want exactly one of spec and error", src, sp, err)
		}
	})
}
