package checkpoint

// Low-level binary codec: little-endian primitives over a byte buffer.
// The encoding is canonical — every value has exactly one valid byte
// representation (booleans must be 0 or 1, counts are fixed-width) — so
// decode followed by re-encode reproduces the input byte for byte, which is
// the round-trip property FuzzCheckpointRoundTrip enforces. The reader
// carries a sticky error and never panics: every length is validated
// against the remaining input before any allocation, so truncated or
// hostile inputs fail cleanly.

import (
	"fmt"
	"math"
)

type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = append(w.buf, byte(v), byte(v>>8)) }
func (w *writer) u32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (w *writer) u64(v uint64) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// retired checks a word the format keeps for a removed feature, so that
// the encoding and its pinned checksums stay unchanged: only zero, what the
// encoder writes there, is accepted.
func (r *reader) retired(what string, v uint64) {
	if r.err == nil && v != 0 {
		r.fail("%s is %d, only 0 is supported", what, v)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

// need reports whether n more bytes are available, failing otherwise.
func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.remaining() < n {
		r.fail("truncated: need %d bytes at offset %d, have %d", n, r.off, r.remaining())
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := uint16(r.b[r.off]) | uint16(r.b[r.off+1])<<8
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	b := r.b[r.off:]
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	b := r.b[r.off:]
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	r.off += 8
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool {
	v := r.u8()
	if r.err == nil && v > 1 {
		r.fail("non-canonical boolean %d at offset %d", v, r.off-1)
	}
	return v == 1
}

// count reads an element count and validates count*elemSize against the
// remaining input, so a hostile length prefix cannot trigger a huge
// allocation.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n < 0 || n > r.remaining()/elemSize {
		r.fail("count %d at offset %d exceeds remaining input", n, r.off-4)
		return 0
	}
	return n
}

func (r *reader) bytes() []byte {
	n := r.count(1)
	if r.err != nil || !r.need(n) {
		return nil
	}
	out := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return out
}

func (r *reader) str() string {
	n := r.count(1)
	if r.err != nil || !r.need(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// FNV-1a 64-bit, matching internal/golden, used as the payload checksum.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnv64(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}
