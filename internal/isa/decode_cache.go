package isa

// DecodeCacheBits sizes the direct-mapped decoded-instruction table. 1024
// entries cover the working set of the framework's workloads (a few hundred
// distinct instruction words) with a per-core footprint of ~20 kB.
const DecodeCacheBits = 10

// DecodeCacheSize is the number of direct-mapped entries.
const DecodeCacheSize = 1 << DecodeCacheBits

// DecodeCache memoizes Decode behind a direct-mapped table keyed by the
// full instruction word. Decode is a pure function, so entries never need
// invalidation — not even across program reloads. The zero value is ready
// to use: an empty slot holds tag 0 and the zero Instr, and Decode(0) *is*
// the zero Instr (OpRType with all fields zero), so a zero-word lookup is
// already a correct hit.
//
// The no-invalidation claim holds precisely because the key is the 32-bit
// instruction word itself, never an address: the table caches the mapping
// word → Instr, which is immutable, not the binding pc → word, which any
// store or program reload can change. A reload that places different words
// at the same addresses simply looks up (and possibly installs) different
// keys; stale entries for the old words remain correct answers for those
// words and are at worst evicted by collisions. Contrast the address-keyed
// block cache of the cpu package, which caches pc → decoded straight-line
// run and therefore must be invalidated by code-range stores (the memory
// controller's code-write hook) and discarded wholesale on core reset and
// checkpoint restore. TestDecodeCacheSurvivesReload pins the word-keyed
// half of this contract; the cpu/emu self-modifying-code and reload tests
// pin the address-keyed half.
//
// Each core owns one cache, so platforms running on concurrent goroutines
// (sweep workers) never share a table.
type DecodeCache struct {
	words  [DecodeCacheSize]uint32
	instrs [DecodeCacheSize]Instr
}

// Decode returns Decode(w), consulting the table first. The index mixes the
// whole word (Fibonacci hashing) because R32 packs opcode bits at the top
// and immediate bits at the bottom: plain low-bit indexing would collide
// every register-to-register opcode pair.
func (c *DecodeCache) Decode(w uint32) Instr {
	i := (w * 0x9E3779B1) >> (32 - DecodeCacheBits)
	if c.words[i] == w {
		return c.instrs[i]
	}
	in := Decode(w)
	c.words[i] = w
	c.instrs[i] = in
	return in
}
