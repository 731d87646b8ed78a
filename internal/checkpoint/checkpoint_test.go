package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
	"thermemu/internal/workloads"
)

const maxCycles = 5_000_000

func loadSpec(t *testing.T, p *emu.Platform, s *workloads.Spec) {
	t.Helper()
	if err := p.LoadWorkload(s); err != nil {
		t.Fatal(err)
	}
}

func matrixSpec(t *testing.T, cores int) *workloads.Spec {
	t.Helper()
	s, err := workloads.Matrix(cores, 4, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildRun creates a loaded 2-core bus platform.
func buildRun(t *testing.T) *emu.Platform {
	t.Helper()
	p := emu.MustNew(emu.DefaultConfig(2))
	loadSpec(t, p, matrixSpec(t, 2))
	return p
}

// fullCheckpoint runs the platform a while and captures a checkpoint with a
// loop section, exercising every format branch.
func fullCheckpoint(t *testing.T, p *emu.Platform) *checkpoint.Checkpoint {
	t.Helper()
	p.AttachActivitySniffers()
	p.Step(10_000)
	ck := checkpoint.FromPlatform(p)
	ck.Window = 3
	ck.GoldenSum, ck.GoldenLen = 0xdeadbeef, 42
	ck.Loop = &checkpoint.LoopState{
		Thermal:   &thermal.ModelState{T: []float64{300, 301}, TAtK: []float64{300, 300.5}, Pw: []float64{0.25, 0.5}, Time: 0.02},
		Policy:    &tm.PolicyState{Throttled: true, Switches: 7},
		CompTemps: []float64{302.5, 303.25},
		MaxTempK:  351.5,
	}
	return ck
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ck := fullCheckpoint(t, buildRun(t))
	data := checkpoint.Encode(ck)
	dec, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	re := checkpoint.Encode(dec)
	if !bytes.Equal(data, re) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(data), len(re))
	}
	if dec.Window != ck.Window || dec.GoldenSum != ck.GoldenSum || dec.GoldenLen != ck.GoldenLen ||
		dec.StateDigest != ck.StateDigest || dec.Partial != ck.Partial {
		t.Fatalf("meta drift: %+v vs %+v", dec, ck)
	}
	if dec.Loop == nil || dec.Loop.Thermal == nil || dec.Loop.Policy == nil {
		t.Fatalf("loop section lost")
	}
	if dec.Loop.MaxTempK != ck.Loop.MaxTempK || !dec.Loop.Policy.Throttled ||
		dec.Loop.Thermal.Time != ck.Loop.Thermal.Time {
		t.Fatalf("loop state drift: %+v", dec.Loop)
	}
}

func TestApplyRestoresExactState(t *testing.T) {
	p := buildRun(t)
	p.AttachActivitySniffers()
	p.Step(10_000)
	ck := checkpoint.FromPlatform(p)
	want := checkpoint.StateDigest(p)

	// Round-trip through bytes, restore into a *fresh* platform, and assert
	// the architectural state digest is reproduced exactly.
	dec, err := checkpoint.Decode(checkpoint.Encode(ck))
	if err != nil {
		t.Fatal(err)
	}
	q := buildRun(t)
	if err := dec.Apply(q); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got := checkpoint.StateDigest(q); got != want {
		t.Fatalf("restored digest %016x, want %016x", got, want)
	}

	// Both platforms must now evolve identically to completion.
	trP, trQ := golden.New(), golden.New()
	p.RunDigest(maxCycles, 1024, trP)
	q.RunDigest(maxCycles, 1024, trQ)
	if trP.Sum64() != trQ.Sum64() || trP.Len() != trQ.Len() {
		t.Fatalf("post-restore runs diverge: %s/%d vs %s/%d", trP.Hex(), trP.Len(), trQ.Hex(), trQ.Len())
	}
}

func TestApplyRejectsMismatchedConfig(t *testing.T) {
	p := buildRun(t)
	p.Step(5_000)
	ck := checkpoint.FromPlatform(p)

	q := emu.MustNew(emu.DefaultConfig(4)) // wrong core count
	loadSpec(t, q, matrixSpec(t, 4))
	if err := ck.Apply(q); err == nil {
		t.Fatal("apply to a 4-core platform should fail")
	}
}

func TestApplyRejectsTamperedDigest(t *testing.T) {
	p := buildRun(t)
	p.Step(5_000)
	ck := checkpoint.FromPlatform(p)
	ck.StateDigest ^= 1

	q := buildRun(t)
	if err := ck.Apply(q); err == nil {
		t.Fatal("apply with a tampered state digest should succeed-fail, got nil")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := checkpoint.Encode(fullCheckpoint(t, buildRun(t)))

	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(data); n += 97 {
		if _, err := checkpoint.Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// Any single-byte flip must be caught by the checksum (or earlier).
	for i := 0; i < len(data); i += 131 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := checkpoint.Decode(mut); err == nil {
			t.Fatalf("bit flip at offset %d decoded cleanly", i)
		}
	}
	// Trailing garbage is rejected.
	if _, err := checkpoint.Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

func TestWriteReadFile(t *testing.T) {
	ck := fullCheckpoint(t, buildRun(t))
	path := filepath.Join(t.TempDir(), "win3.tmck")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dec.StateDigest != ck.StateDigest || dec.Window != ck.Window {
		t.Fatalf("file round-trip drift: %+v", dec)
	}
}

// TestReadFileCapsSize: a file one byte over MaxBytes is refused on its
// size before any decoding, while one of exactly MaxBytes reaches the
// decoder (and fails there, being zeros).
func TestReadFileCapsSize(t *testing.T) {
	dir := t.TempDir()
	for _, size := range []int64{checkpoint.MaxBytes, checkpoint.MaxBytes + 1} {
		path := filepath.Join(dir, "sparse.tmck")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(size); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = checkpoint.ReadFile(path)
		capped := err != nil && strings.Contains(err.Error(), "exceeds")
		if want := size > checkpoint.MaxBytes; err == nil || capped != want {
			t.Errorf("%d-byte file: err = %v, want size refusal %v", size, err, want)
		}
	}
}

func TestStoreNearestAtOrBefore(t *testing.T) {
	mk := func(cycle uint64) *checkpoint.Checkpoint {
		c := &checkpoint.Checkpoint{Platform: &emu.PlatformState{}}
		c.Platform.Clock.Cycle = cycle
		return c
	}
	s := &checkpoint.Store{}
	s.Add(mk(3000))
	s.Add(mk(1000))
	s.Add(mk(2000))
	if s.Len() != 3 {
		t.Fatalf("store len %d", s.Len())
	}
	for _, tc := range []struct {
		at   uint64
		want uint64
		ok   bool
	}{{999, 0, false}, {1000, 1000, true}, {1500, 1000, true}, {2999, 2000, true}, {9999, 3000, true}} {
		got := s.NearestAtOrBefore(tc.at)
		if (got != nil) != tc.ok {
			t.Fatalf("NearestAtOrBefore(%d): got %v, ok=%v", tc.at, got, tc.ok)
		}
		if got != nil && got.Platform.Clock.Cycle != tc.want {
			t.Fatalf("NearestAtOrBefore(%d) = cycle %d, want %d", tc.at, got.Platform.Clock.Cycle, tc.want)
		}
	}
}
