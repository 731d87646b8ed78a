package workloads_test

import (
	"strings"
	"testing"

	"thermemu/internal/emu"
	"thermemu/internal/workloads"
)

// --- registry ---

func TestRegistryNamesSortedAndComplete(t *testing.T) {
	names := workloads.Names()
	for _, want := range []string{"dithering", "fir", "histogram", "locks", "matrix", "matrix-tm", "membound", "pipeline"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry is missing %q (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %q before %q", names[i-1], names[i])
		}
	}
	if help := workloads.NamesHelp(); !strings.Contains(help, " | ") || !strings.Contains(help, "fir") {
		t.Errorf("NamesHelp() = %q", help)
	}
}

func TestRegistryBuildUnknownListsCorpus(t *testing.T) {
	_, err := workloads.Build("fibonacci", workloads.Params{Cores: 4})
	if err == nil {
		t.Fatal("Build accepted an unknown workload")
	}
	if !strings.Contains(err.Error(), "fibonacci") || !strings.Contains(err.Error(), workloads.NamesHelp()) {
		t.Errorf("error %q should name the workload and list the corpus", err)
	}
}

func TestRegistryMinCores(t *testing.T) {
	if _, err := workloads.Build("pipeline", workloads.Params{Cores: 1}); err == nil ||
		!strings.Contains(err.Error(), "at least 2") {
		t.Errorf("pipeline at 1 core: %v", err)
	}
	if _, err := workloads.Build("pipeline", workloads.Params{Cores: 2}); err != nil {
		t.Errorf("pipeline at 2 cores: %v", err)
	}
}

func TestRegistryDefaults(t *testing.T) {
	// A caller that knows only the core count can build everything the
	// registry offers (pipeline aside, which needs 2).
	for _, name := range workloads.Names() {
		cores := 2
		s, err := workloads.Build(name, workloads.Params{Cores: cores})
		if err != nil {
			t.Errorf("Build(%q) with bare params: %v", name, err)
			continue
		}
		if len(s.Programs) != cores {
			t.Errorf("Build(%q) gave %d programs for %d cores", name, len(s.Programs), cores)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	workloads.Register(workloads.Builder{Name: "matrix", Build: func(workloads.Params) (*workloads.Spec, error) { return nil, nil }})
}

// --- fir ---

func TestFIRFourCoresBus(t *testing.T) {
	s, err := workloads.FIR(4, 4, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, emu.DefaultConfig(4), s, 5_000_000)
}

func TestFIRSingleCoreNoC(t *testing.T) {
	s, err := workloads.FIR(1, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := emu.DefaultConfig(1)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Table3NoC(1)
	runToCompletion(t, cfg, s, 5_000_000)
}

func TestFIRRejectsBadParams(t *testing.T) {
	for name, build := range map[string]func() (*workloads.Spec, error){
		"zero words":     func() (*workloads.Spec, error) { return workloads.FIR(4, 4, 0, 1) },
		"uneven split":   func() (*workloads.Spec, error) { return workloads.FIR(4, 4, 30, 1) },
		"taps overrun":   func() (*workloads.Spec, error) { return workloads.FIR(1, 4096, 4096, 1) },
		"stream overrun": func() (*workloads.Spec, error) { return workloads.FIR(4, 4, 16384, 1) },
		"negative iters": func() (*workloads.Spec, error) { return workloads.FIR(4, 4, 16, -1) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("FIR accepted %s", name)
		}
	}
}

func TestFIRVerifierMessages(t *testing.T) {
	s, err := workloads.FIR(2, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, sums := workloads.FIRRef(2, 4, 8)
	good := func(off uint32) uint32 {
		switch {
		case off >= workloads.FIROutBase:
			return y[(off-workloads.FIROutBase)/4]
		case off < uint32(4*len(sums)):
			return sums[off/4]
		}
		return 0
	}
	if err := s.Verify(good); err != nil {
		t.Fatalf("verifier rejected the reference memory: %v", err)
	}
	badOut := func(off uint32) uint32 {
		if off == workloads.FIROutBase+4*3 {
			return good(off) + 1
		}
		return good(off)
	}
	if err := s.Verify(badOut); err == nil || !strings.Contains(err.Error(), "output sample 3") {
		t.Errorf("corrupt output sample: %v", err)
	}
	badSum := func(off uint32) uint32 {
		if off == workloads.ChecksumBase+4 {
			return good(off) ^ 0xFF
		}
		return good(off)
	}
	if err := s.Verify(badSum); err == nil || !strings.Contains(err.Error(), "core 1 segment checksum") {
		t.Errorf("corrupt segment checksum: %v", err)
	}
}

// --- histogram ---

func TestHistogramFourCoresBus(t *testing.T) {
	s, err := workloads.Histogram(4, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, emu.DefaultConfig(4), s, 5_000_000)
}

func TestHistogramRejectsBadParams(t *testing.T) {
	for name, build := range map[string]func() (*workloads.Spec, error){
		"zero bins":    func() (*workloads.Spec, error) { return workloads.Histogram(4, 0, 32) },
		"bins overrun": func() (*workloads.Spec, error) { return workloads.Histogram(4, 4096, 4096) },
		"uneven split": func() (*workloads.Spec, error) { return workloads.Histogram(4, 8, 30) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("Histogram accepted %s", name)
		}
	}
}

func TestHistogramVerifierMessages(t *testing.T) {
	s, err := workloads.Histogram(2, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.HistogramRef(4, 16)
	good := func(off uint32) uint32 {
		if off >= workloads.HistBase && off < workloads.HistBase+uint32(4*len(want)) {
			return want[(off-workloads.HistBase)/4]
		}
		return 0
	}
	if err := s.Verify(good); err != nil {
		t.Fatalf("verifier rejected the reference memory: %v", err)
	}
	lost := func(off uint32) uint32 {
		if off == workloads.HistBase+4*2 && good(off) > 0 {
			return good(off) - 1
		}
		return good(off)
	}
	if err := s.Verify(lost); err == nil || !strings.Contains(err.Error(), "lost updates") {
		t.Errorf("lost update: %v", err)
	}
	held := func(off uint32) uint32 {
		if off == workloads.HistLockAddr {
			return 1
		}
		return good(off)
	}
	if err := s.Verify(held); err == nil || !strings.Contains(err.Error(), "lock left held") {
		t.Errorf("held lock: %v", err)
	}
}

// --- pipeline ---

func TestPipelineTwoCoresBus(t *testing.T) {
	s, err := workloads.Pipeline(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, emu.DefaultConfig(2), s, 5_000_000)
}

func TestPipelineFourCoresNoC(t *testing.T) {
	s, err := workloads.Pipeline(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := emu.DefaultConfig(4)
	cfg.IC = emu.ICNoC
	cfg.NoC = emu.Table3NoC(4)
	runToCompletion(t, cfg, s, 5_000_000)
}

func TestPipelineRejectsBadParams(t *testing.T) {
	if _, err := workloads.Pipeline(1, 16); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Errorf("single-core pipeline: %v", err)
	}
	if _, err := workloads.Pipeline(4, 0); err == nil {
		t.Error("Pipeline accepted zero items")
	}
}

func TestPipelineVerifierMessages(t *testing.T) {
	const cores, items = 3, 8
	s, err := workloads.Pipeline(cores, items)
	if err != nil {
		t.Fatal(err)
	}
	good := func(off uint32) uint32 {
		switch {
		case off == workloads.PipeOutAddr:
			return workloads.PipelineRef(cores, items)
		case off < uint32(4*cores):
			return items
		}
		return 0
	}
	if err := s.Verify(good); err != nil {
		t.Fatalf("verifier rejected the reference memory: %v", err)
	}
	wrongSum := func(off uint32) uint32 {
		if off == workloads.PipeOutAddr {
			return good(off) + 1
		}
		return good(off)
	}
	if err := s.Verify(wrongSum); err == nil || !strings.Contains(err.Error(), "final accumulator") {
		t.Errorf("wrong accumulator: %v", err)
	}
	shortStage := func(off uint32) uint32 {
		if off == workloads.ChecksumBase+4 {
			return items - 1
		}
		return good(off)
	}
	if err := s.Verify(shortStage); err == nil || !strings.Contains(err.Error(), "stage 1 processed") {
		t.Errorf("short stage: %v", err)
	}
	stranded := func(off uint32) uint32 {
		if off == workloads.PipeBase+8 {
			return 1
		}
		return good(off)
	}
	if err := s.Verify(stranded); err == nil || !strings.Contains(err.Error(), "mailbox 1 flag left raised") {
		t.Errorf("stranded item: %v", err)
	}
}

// --- shared-block geometry ---

func TestSpecSharedBlocksStayDisjoint(t *testing.T) {
	// Every corpus workload's preloaded shared blocks must be disjoint —
	// the scenario linter's overlap check relies on it.
	for _, name := range workloads.Names() {
		s, err := workloads.Build(name, workloads.Params{Cores: 4, N: 8, Iters: 2, Size: 16, Words: 32})
		if err != nil {
			t.Errorf("Build(%q): %v", name, err)
			continue
		}
		type span struct{ lo, hi uint32 }
		var spans []span
		for _, b := range s.Shared {
			spans = append(spans, span{b.Addr, b.Addr + uint32(len(b.Data))})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					t.Errorf("%s: shared blocks [%#x,%#x) and [%#x,%#x) overlap",
						name, spans[i].lo, spans[i].hi, spans[j].lo, spans[j].hi)
				}
			}
		}
	}
}
