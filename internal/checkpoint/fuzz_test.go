package checkpoint_test

import (
	"bytes"
	"testing"

	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
)

// FuzzCheckpointRoundTrip feeds arbitrary bytes to the strict decoder. The
// contract under fuzz: never panic, and any input that decodes cleanly must
// re-encode to the identical bytes (the codec is canonical). Seeds include
// a real encoded checkpoint so the fuzzer starts inside the format, and
// five that only the retired-word checks refuse.
func FuzzCheckpointRoundTrip(f *testing.F) {
	small := &checkpoint.Checkpoint{Platform: &emu.PlatformState{}}
	f.Add(checkpoint.Encode(small))

	p := emu.MustNew(emu.DefaultConfig(1))
	p.Step(100)
	f.Add(checkpoint.Encode(checkpoint.FromPlatform(p)))
	// Streams that are valid but for a non-zero retired L2 count, for an
	// event-cycle word that differs from the core-step count, and for a
	// non-zero retired activity-sniffer or ring-event count, and for a
	// disabled cache.
	f.Add(checkpoint.WithRetiredField(checkpoint.FromPlatform(p), "l2", 1))
	f.Add(checkpoint.WithEventCycles(checkpoint.FromPlatform(p), 0))
	f.Add(checkpoint.WithRetiredField(checkpoint.FromPlatform(p), "activity-sniffers", 1))
	f.Add(checkpoint.WithRetiredField(checkpoint.FromPlatform(p), "ring-events", 1))
	f.Add(checkpoint.WithCacheEnabled(checkpoint.FromPlatform(p), 0))

	f.Add([]byte{})
	f.Add([]byte{0x54, 0x4d, 0x43, 0x4b}) // bare magic

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := checkpoint.Decode(data)
		if err != nil {
			return
		}
		re := checkpoint.Encode(ck)
		if !bytes.Equal(data, re) {
			t.Fatalf("decode/re-encode not byte-identical: %d in, %d out", len(data), len(re))
		}
	})
}
