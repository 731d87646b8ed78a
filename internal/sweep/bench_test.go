package sweep

import (
	"runtime"
	"testing"

	"thermemu/internal/etherlink"
)

// benchWorkers measures aggregate grid throughput at a given worker-pool
// size. The canonical rows BenchmarkSweepWorkers{1,4,8} feed the benchgate
// -sweep scaling contracts: near-linear growth on multi-CPU runners, a
// bounded coordination tax on single-CPU ones.
func benchWorkers(b *testing.B, workers int) {
	points := smallGrid(b)
	windows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := RunPoints("bench", points, 0, Options{Workers: workers, StragglerAfter: -1})
		if err != nil {
			b.Fatal(err)
		}
		windows += out.Windows()
	}
	b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
}

func BenchmarkSweepWorkers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkSweepWorkers4(b *testing.B) { benchWorkers(b, 4) }
func BenchmarkSweepWorkers8(b *testing.B) { benchWorkers(b, 8) }

// warmupBenchGrid: one platform, every TM policy — a single warm-up group,
// so prefix sharing eliminates (policies-1) redundant warm-up runs.
func warmupBenchGrid(b testing.TB) []Point {
	var points []Point
	for _, pol := range []string{"none", "threshold-dfs", "proportional-dfs"} {
		s := smallScenario()
		s.Policy = pol
		s.Name = "warm/" + pol
		if err := s.Lint(); err != nil {
			b.Fatal(err)
		}
		points = append(points, Point{Index: len(points), Name: s.Name, Scenario: s})
	}
	return points
}

// warmupPrefixWindows is most of the small workload's ~63-window run: the
// regime the paper's Figure 6 sweeps live in, where every grid point repeats
// a long identical warm-up before its policies diverge.
const warmupPrefixWindows = 40

// benchWarmup measures grid wall time with and without prefix sharing on a
// single worker (wall is then proportional to emulated windows, so the
// ns/op gap is exactly the redundant warm-up work eliminated).
func benchWarmup(b *testing.B, prefix int) {
	points := warmupBenchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPoints("warm", points, prefix, Options{Workers: 1, StragglerAfter: -1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
}

func BenchmarkSweepWarmupCold(b *testing.B)   { benchWarmup(b, 0) }
func BenchmarkSweepWarmupShared(b *testing.B) { benchWarmup(b, warmupPrefixWindows) }

// benchJob times one grid of points that share a warm-up key, without a
// prefix, on one worker: one job, hence one emulation of the platform.
func benchJob(b *testing.B, points []Point) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPoints("job", points, 0, Options{Workers: 1, StragglerAfter: -1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
}

// BenchmarkSweepGroup and BenchmarkSweepSolo feed benchgate -sweep's
// grouping contract: the three policies of warmupBenchGrid run as one
// group must take less than twice the wall time of the TM-off point
// alone. Run point by point they take about three times as long, since
// emulation, which the group does once, is most of a point's cost.
func BenchmarkSweepGroup(b *testing.B) { benchJob(b, warmupBenchGrid(b)) }
func BenchmarkSweepSolo(b *testing.B)  { benchJob(b, warmupBenchGrid(b)[:1]) }

// BenchmarkSweepChaos keeps a throughput row for the chaos configuration so
// regressions in the fault-healing path show up as windows/s, not just as
// test wall time.
func BenchmarkSweepChaos(b *testing.B) {
	points := smallGrid(b)
	windows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := RunPoints("chaos", points, 0, Options{
			Workers:        4,
			StragglerAfter: -1,
			Fault:          etherlink.FaultConfig{Drop: 0.02, Dup: 0.01, Reorder: 0.02, Corrupt: 0.005},
			FaultSeed:      int64(1000 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		windows += out.Windows()
	}
	b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
}
