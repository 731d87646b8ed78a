package scenario

import (
	"path/filepath"
	"testing"

	"thermemu/internal/core"
)

var benchConfig core.Config

// BenchmarkScenarioSetup times what a design point pays before its first
// window: loading and linting a scenario file, then compiling it into a
// co-emulation config (workload assembly, platform and thermal host).
func BenchmarkScenarioSetup(b *testing.B) {
	path := filepath.Join(scenariosDir, "matrix-tm.scn")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Load(path)
		if err != nil {
			b.Fatal(err)
		}
		if benchConfig, err = s.CoEmulation(); err != nil {
			b.Fatal(err)
		}
	}
}
