// Package checkpoint provides versioned, self-describing serialization of
// the full emulated-platform state (and the closed co-emulation loop's
// thermal/policy state riding along), written at window boundaries so long
// Figure-6-class runs become resumable, forkable and debuggable.
//
// Integrity is layered: the byte stream carries an FNV checksum, so
// corruption is rejected at decode; and every checkpoint embeds the golden
// state digest (internal/golden over emu.Platform.DigestInto) computed when
// it was taken, so Apply can verify — after restoring — that the platform
// reproduces the exact architectural state the checkpoint described. A
// snapshot from a differently configured platform, or one that rotted on
// disk past the checksum, is rejected at load rather than silently resumed.
package checkpoint

import (
	"fmt"
	"io"
	"os"

	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/isa"
	"thermemu/internal/thermal"
	"thermemu/internal/tm"
)

// Version is the current stream format version.
const Version = 1

// magic identifies a checkpoint stream ("TMCK").
const magic uint32 = 0x4b434d54

// Section tags. The stream is a fixed-order sequence of length-prefixed
// sections (meta, platform, optional loop, end), so readers can size and
// skip payloads without parsing them.
const (
	secMeta     = 1
	secPlatform = 2
	secLoop     = 3
	secEnd      = 0xff
)

// LoopState is the closed co-emulation loop's state outside the platform:
// the thermal model, the TM policy and the feedback temperatures in flight.
type LoopState struct {
	Thermal   *thermal.ModelState
	Policy    *tm.PolicyState
	CompTemps []float64 // last component temperatures fed back to the power model
	MaxTempK  float64   // running hottest-cell maximum of the run
}

// Checkpoint is one window-boundary snapshot.
type Checkpoint struct {
	// Window counts the sampling windows committed before this checkpoint
	// was taken.
	Window uint64
	// Partial marks a final flush written by an aborting run (the window in
	// flight when the error hit was emulated but its thermal solve is lost).
	Partial bool
	// GoldenSum/GoldenLen carry the run's golden-trace accumulator at the
	// boundary, so a resumed run continues the digest lineage and its final
	// digest equals the uninterrupted run's.
	GoldenSum uint64
	GoldenLen uint64
	// StateDigest is the golden digest of the platform's full architectural
	// state at the boundary (emu.Platform.DigestInto); Apply recomputes it
	// after restoring and refuses a mismatch.
	StateDigest uint64
	Platform    *emu.PlatformState
	Loop        *LoopState
}

// StateDigest computes the golden digest of the platform's current full
// architectural state.
func StateDigest(p *emu.Platform) uint64 {
	tr := golden.New()
	p.DigestInto(tr)
	return tr.Sum64()
}

// FromPlatform captures the platform into a checkpoint, embedding the state
// digest. Loop, Window and the golden accumulator are the caller's to fill.
func FromPlatform(p *emu.Platform) *Checkpoint {
	return &Checkpoint{Platform: p.SaveState(), StateDigest: StateDigest(p)}
}

// Apply restores the checkpoint into p and verifies the embedded state
// digest against the restored platform. An error means p was left in an
// undefined state and must not be resumed.
func (c *Checkpoint) Apply(p *emu.Platform) error {
	if c.Platform == nil {
		return fmt.Errorf("checkpoint: no platform state")
	}
	if err := p.RestoreState(c.Platform); err != nil {
		return err
	}
	if got := StateDigest(p); got != c.StateDigest {
		return fmt.Errorf("checkpoint: state digest %016x after restore, checkpoint recorded %016x (configuration mismatch?)",
			got, c.StateDigest)
	}
	return nil
}

// Encode serializes the checkpoint.
func Encode(c *Checkpoint) []byte {
	w := &writer{}
	w.u32(magic)
	w.u16(Version)

	section := func(tag uint8, fill func(*writer)) {
		body := &writer{}
		fill(body)
		w.u8(tag)
		w.u64(uint64(len(body.buf)))
		w.buf = append(w.buf, body.buf...)
	}
	section(secMeta, func(b *writer) {
		b.u64(c.Window)
		b.bool(c.Partial)
		b.u64(c.GoldenSum)
		b.u64(c.GoldenLen)
		b.u64(c.StateDigest)
	})
	section(secPlatform, func(b *writer) { encodePlatform(b, c.Platform) })
	if c.Loop != nil {
		section(secLoop, func(b *writer) { encodeLoop(b, c.Loop) })
	}
	w.u8(secEnd)
	w.u64(fnv64(w.buf))
	return w.buf
}

// Decode parses a checkpoint stream. It is strict: the checksum, the
// section order and every embedded count must be exactly right, and any
// successfully decoded stream re-encodes to the identical bytes.
func Decode(data []byte) (*Checkpoint, error) {
	r := &reader{b: data}
	if m := r.u32(); r.err == nil && m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %08x", m)
	}
	if v := r.u16(); r.err == nil && v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (have %d)", v, Version)
	}
	if r.err != nil {
		return nil, r.err
	}

	c := &Checkpoint{}
	readSection := func(wantTag uint8, parse func(*reader)) bool {
		if r.err != nil {
			return false
		}
		tag := r.u8()
		if r.err != nil {
			return false
		}
		if tag != wantTag {
			// Put the tag back for the caller to interpret (optional
			// sections, end marker).
			r.off--
			return false
		}
		n := r.u64()
		if r.err != nil {
			return false
		}
		if n > uint64(r.remaining()) {
			r.fail("section %d length %d exceeds remaining input", tag, n)
			return false
		}
		body := &reader{b: r.b[r.off : r.off+int(n)]}
		parse(body)
		if body.err != nil {
			r.err = body.err
			return false
		}
		if body.remaining() != 0 {
			r.fail("section %d has %d trailing bytes", tag, body.remaining())
			return false
		}
		r.off += int(n)
		return true
	}

	if !readSection(secMeta, func(b *reader) {
		c.Window = b.u64()
		c.Partial = b.bool()
		c.GoldenSum = b.u64()
		c.GoldenLen = b.u64()
		c.StateDigest = b.u64()
	}) {
		if r.err == nil {
			r.fail("missing meta section")
		}
		return nil, r.err
	}
	if !readSection(secPlatform, func(b *reader) { c.Platform = decodePlatform(b) }) {
		if r.err == nil {
			r.fail("missing platform section")
		}
		return nil, r.err
	}
	readSection(secLoop, func(b *reader) { c.Loop = decodeLoop(b) })
	if r.err != nil {
		return nil, r.err
	}
	if tag := r.u8(); r.err == nil && tag != secEnd {
		return nil, fmt.Errorf("checkpoint: unknown section tag %d", tag)
	}
	sumStart := r.off
	sum := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if want := fnv64(data[:sumStart]); sum != want {
		return nil, fmt.Errorf("checkpoint: checksum %016x, stream carries %016x (corrupt)", want, sum)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after checksum", r.remaining())
	}
	return c, nil
}

// MaxBytes bounds an encoded checkpoint. ReadFile refuses a longer file
// without reading past the limit, WriteFile refuses to write one, and a
// sweep protocol message, which carries at most one checkpoint, is capped
// at the same size. The checkpoints of the example and benchmark grids are
// under 100 kB.
const MaxBytes = 16 << 20

// WriteFile encodes the checkpoint to path atomically (temp file + rename).
func (c *Checkpoint) WriteFile(path string) error {
	data := Encode(c)
	if len(data) > MaxBytes {
		return fmt.Errorf("checkpoint: %d-byte encoding exceeds %d bytes", len(data), MaxBytes)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile reads and decodes a checkpoint file.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, MaxBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > MaxBytes {
		return nil, fmt.Errorf("checkpoint: %s: file exceeds %d bytes", path, MaxBytes)
	}
	return Decode(data)
}

const numRegs = isa.NumRegs
