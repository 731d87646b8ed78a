package checkpoint

import (
	"bytes"
	"encoding/binary"

	"thermemu/internal/mem"
)

// WithRetiredField returns Encode(c) with one retired word set to v and
// the trailing checksum recomputed, so only the decoder's retired-field
// check can tell it from a valid stream. field names the word: "paired"
// (core 0's dual-issue pair counter), "l2" (the per-core L2 count),
// "scratch" (the per-core scratchpad count), "activity-sniffers" (the
// activity-sniffer count), "event-sniffers" (the event-sniffer count) or
// "ring-events" (the buffered ring-event count).
// c must hold at least one core.
func WithRetiredField(c *Checkpoint, field string, v uint64) []byte {
	data := Encode(c)
	// Header (magic, version), then the meta section: tag, length, body.
	metaLen := binary.LittleEndian.Uint64(data[7:])
	body := 6 + 9 + int(metaLen) + 9 // platform section body

	s := c.Platform
	w := &writer{}
	// The activity-sniffer, event-sniffer and ring-event counts are the
	// platform section's last three words.
	tail := map[string]int{"activity-sniffers": 12, "event-sniffers": 8, "ring-events": 4}
	if back, ok := tail[field]; ok {
		encodePlatform(w, s)
		binary.LittleEndian.PutUint32(data[body+len(w.buf)-back:], uint32(v))
		return resum(data)
	}
	clock := s.Clock
	encodeClock(w, &clock)
	w.u32(uint32(len(s.Cores)))
	if field == "paired" {
		encodeCore(w, &s.Cores[0])
		binary.LittleEndian.PutUint64(data[body+len(w.buf)-8:], v)
		return resum(data)
	}
	for i := range s.Cores {
		encodeCore(w, &s.Cores[i])
	}
	for _, caches := range [][]mem.CacheState{s.ICaches, s.DCaches} {
		w.u32(uint32(len(caches)))
		for i := range caches {
			encodeCache(w, &caches[i])
		}
	}
	if field == "l2" {
		binary.LittleEndian.PutUint32(data[body+len(w.buf):], uint32(v))
		return resum(data)
	}
	w.u32(0)
	w.u32(uint32(len(s.Ctrls)))
	for i := range s.Ctrls {
		encodeCtrl(w, &s.Ctrls[i])
	}
	w.u32(uint32(len(s.Privs)))
	for i := range s.Privs {
		encodeMemory(w, &s.Privs[i])
	}
	if field != "scratch" {
		panic("checkpoint: unknown retired field " + field)
	}
	binary.LittleEndian.PutUint32(data[body+len(w.buf):], uint32(v))
	return resum(data)
}

// WithEventCycles returns Encode(c) with the retired event-cycle word set
// to v and the trailing checksum recomputed. The word sits just before the
// skipped-cycle and core-step counters and is encoded as the core-step
// count, so the three words are found as one run; c's run must be unique
// in the stream.
func WithEventCycles(c *Checkpoint, v uint64) []byte {
	data := Encode(c)
	sk := c.Platform.Skip
	run := binary.LittleEndian.AppendUint64(nil, sk.CoreSteps)
	run = binary.LittleEndian.AppendUint64(run, sk.SkippedCycles)
	run = binary.LittleEndian.AppendUint64(run, sk.CoreSteps)
	at := bytes.Index(data, run)
	if at < 0 || bytes.LastIndex(data, run) != at {
		panic("checkpoint: skip counters not found exactly once")
	}
	binary.LittleEndian.PutUint64(data[at:], v)
	return resum(data)
}

// WithCacheEnabled returns Encode(c) with the retired cache-enable flag of
// core 0's instruction cache set to v and the trailing checksum
// recomputed. c must hold at least one instruction cache.
func WithCacheEnabled(c *Checkpoint, v byte) []byte {
	data := Encode(c)
	metaLen := binary.LittleEndian.Uint64(data[7:])
	body := 6 + 9 + int(metaLen) + 9 // platform section body

	s := c.Platform
	w := &writer{}
	clock := s.Clock
	encodeClock(w, &clock)
	w.u32(uint32(len(s.Cores)))
	for i := range s.Cores {
		encodeCore(w, &s.Cores[i])
	}
	w.u32(uint32(len(s.ICaches)))
	encodeCache(w, &s.ICaches[0])
	data[body+len(w.buf)-1] = v
	return resum(data)
}

// resum rewrites the trailing checksum of an encoded stream.
func resum(data []byte) []byte {
	n := len(data) - 8
	binary.LittleEndian.PutUint64(data[n:], fnv64(data[:n]))
	return data
}
