package mem

// This file provides the memory-mapped devices of the emulated platform:
// a generic register device (the per-core info registers, and the range
// where the paper maps its sniffer control registers, which here reads 0
// and ignores stores) and a hardware barrier used by the parallel
// workloads for phase synchronisation.

// RegDevice is a small bank of 32-bit registers whose semantics are
// supplied by load/store callbacks. Accesses take a fixed latency.
type RegDevice struct {
	name    string
	words   uint32
	latency uint64
	onLoad  func(reg uint32) uint32
	onStore func(reg uint32, v uint32)
}

// NewRegDevice creates a device of `words` 32-bit registers. onLoad and
// onStore receive the register index (addr/4); either may be nil.
func NewRegDevice(name string, words uint32, latency uint64,
	onLoad func(uint32) uint32, onStore func(uint32, uint32)) *RegDevice {
	return &RegDevice{name: name, words: words, latency: latency, onLoad: onLoad, onStore: onStore}
}

// Name returns the device instance name.
func (d *RegDevice) Name() string { return d.name }

// Size implements Target.
func (d *RegDevice) Size() uint32 { return d.words * 4 }

// Latency implements Target.
func (d *RegDevice) Latency(now uint64, addr uint32, bytes uint32, write bool) uint64 {
	return d.latency
}

// LoadWord implements Target.
func (d *RegDevice) LoadWord(addr uint32) uint32 {
	if d.onLoad != nil {
		return d.onLoad(addr / 4)
	}
	return 0
}

// StoreWord implements Target.
func (d *RegDevice) StoreWord(addr uint32, v uint32) {
	if d.onStore != nil {
		d.onStore(addr/4, v)
	}
}

// LoadByte implements Target (reads the addressed byte of the register).
func (d *RegDevice) LoadByte(addr uint32) byte {
	return byte(d.LoadWord(addr&^3) >> (8 * (addr % 4)))
}

// StoreByte implements Target. Byte stores are widened to word stores with
// the byte placed in its lane and other lanes zero; register devices on the
// platform are word-accessed, so this is only a convenience.
func (d *RegDevice) StoreByte(addr uint32, b byte) {
	d.StoreWord(addr&^3, uint32(b)<<(8*(addr%4)))
}

// Barrier is a hardware barrier for n participants, exposed as a one-word
// device. Protocol (per core):
//
//	g  = LoadWord(0)      // current generation
//	StoreWord(0, any)     // arrive
//	for LoadWord(0) == g  // spin until generation advances
//
// Every participant must arrive exactly once per phase.
type Barrier struct {
	name     string
	n        int
	latency  uint64
	arrivals int
	gen      uint32
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(name string, n int, latency uint64) *Barrier {
	return &Barrier{name: name, n: n, latency: latency}
}

// Name returns the barrier instance name.
func (b *Barrier) Name() string { return b.name }

// Generation returns the number of completed barrier phases.
func (b *Barrier) Generation() uint32 { return b.gen }

// Arrivals returns the number of participants that have arrived in the
// current (incomplete) phase.
func (b *Barrier) Arrivals() int { return b.arrivals }

// Size implements Target.
func (b *Barrier) Size() uint32 { return 4 }

// Latency implements Target.
func (b *Barrier) Latency(now uint64, addr uint32, bytes uint32, write bool) uint64 {
	return b.latency
}

// LoadWord implements Target: returns the current generation.
func (b *Barrier) LoadWord(addr uint32) uint32 { return b.gen }

// StoreWord implements Target: registers an arrival.
func (b *Barrier) StoreWord(addr uint32, v uint32) {
	b.arrivals++
	if b.arrivals >= b.n {
		b.arrivals = 0
		b.gen++
	}
}

// LoadByte implements Target.
func (b *Barrier) LoadByte(addr uint32) byte { return byte(b.gen >> (8 * (addr % 4))) }

// StoreByte implements Target.
func (b *Barrier) StoreByte(addr uint32, _ byte) { b.StoreWord(0, 0) }
