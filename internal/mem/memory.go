// Package mem models the configurable memory hierarchy of the emulated
// MPSoC: private and shared main memories with user-defined latencies,
// private HW-controlled instruction/data caches (direct-mapped and
// set-associative), and the per-core memory controller that captures every
// memory request of its processor and forwards it to the right device
// (Section 3.2 of the DAC'06 paper).
//
// The data plane and the timing plane are deliberately separated: a Target
// provides functional Load/Store access plus a Latency method that models
// the cycles a timed access takes. Caches are timing directories (tags, LRU
// and dirty state) over an always-consistent backing store, which keeps the
// emulated platform functionally exact while still producing exact hit,
// miss, eviction and write-back statistics for the sniffers.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Target is a memory-mapped component: the functional data plane plus the
// access-timing model. Addresses passed to a Target are local (offset 0 is
// the first byte of the device); the Controller translates global addresses.
type Target interface {
	// Latency returns the number of cycles an access of the given size
	// starting at cycle now takes to complete. Implementations may keep
	// internal busy state (e.g. an interconnect path).
	Latency(now uint64, addr uint32, bytes uint32, write bool) uint64
	// LoadWord / StoreWord access a naturally aligned 32-bit word.
	LoadWord(addr uint32) uint32
	StoreWord(addr uint32, v uint32)
	// LoadByte / StoreByte access a single byte.
	LoadByte(addr uint32) byte
	StoreByte(addr uint32, b byte)
	// Size returns the addressable size of the component in bytes.
	Size() uint32
}

// SuppressionSink receives virtual-clock-inhibition requests. In the paper
// this is the VIRTUAL_CLK_SUPPRESSION signal into the VPCM: when the
// physical device backing an emulated memory (e.g. board DDR) is slower than
// the user-defined latency, the virtual clock is frozen for the difference
// so the emulated timing is preserved.
type SuppressionSink interface {
	AddSuppression(source string, cycles uint64)
}

// MemStats counts functional traffic into a memory device.
type MemStats struct {
	Reads  uint64
	Writes uint64
}

const pageSize = 1 << 12

// Memory is a RAM model with configurable size and user-defined latency.
// Storage is a flat page table with one slot per page of the memory, and a
// page is allocated when it is first touched, so an untouched page costs
// one pointer.
type Memory struct {
	name    string
	size    uint32
	latency uint64
	// physLatency models the latency of the physical FPGA-board device
	// (BRAM vs DDR) that would implement this memory. When it exceeds the
	// user-defined latency the difference is reported to the suppression
	// sink, emulating the VPCM clock-freeze mechanism.
	physLatency uint64
	sink        SuppressionSink
	// pages holds one slot per page, nil until the page is first touched.
	pages []*[pageSize]byte
	stats MemStats
}

// NewMemory creates a memory of the given size (bytes) and user-defined
// access latency in cycles.
func NewMemory(name string, size uint32, latency uint64) *Memory {
	return &Memory{name: name, size: size, latency: latency, physLatency: latency,
		pages: make([]*[pageSize]byte, (uint64(size)+pageSize-1)/pageSize)}
}

// SetPhysicalLatency declares the latency of the physical device that backs
// this memory on the emulation board and the sink notified when it exceeds
// the modelled latency.
func (m *Memory) SetPhysicalLatency(cycles uint64, sink SuppressionSink) {
	m.physLatency = cycles
	m.sink = sink
}

// Name returns the memory's instance name.
func (m *Memory) Name() string { return m.name }

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// Stats returns the functional access counts.
func (m *Memory) Stats() MemStats { return m.stats }

func (m *Memory) page(addr uint32) *[pageSize]byte {
	if addr >= m.size {
		panic(fmt.Sprintf("mem: %s: address 0x%x beyond size 0x%x", m.name, addr, m.size))
	}
	p := m.pages[addr/pageSize]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[addr/pageSize] = p
	}
	return p
}

// Latency implements Target. It also forwards physical-device slack to the
// suppression sink.
func (m *Memory) Latency(now uint64, addr uint32, bytes uint32, write bool) uint64 {
	// A burst of n words is pipelined: first access pays the full latency,
	// subsequent words stream one per cycle.
	words := uint64((bytes + 3) / 4)
	if words == 0 {
		words = 1
	}
	lat := m.latency + (words - 1)
	if m.physLatency > m.latency && m.sink != nil {
		m.sink.AddSuppression(m.name, m.physLatency-m.latency)
	}
	return lat
}

// LoadWord implements Target.
func (m *Memory) LoadWord(addr uint32) uint32 {
	m.stats.Reads++
	p := m.page(addr)
	if o := addr % pageSize; o <= pageSize-4 {
		return binary.LittleEndian.Uint32(p[o:])
	}
	// Word straddles a page boundary (cannot happen for aligned accesses).
	return m.straddleWord(addr)
}

// alignedPage returns the page holding the aligned address addr, below
// Size: one table load for a touched page. Index it with
// addr&(pageSize-4).
func (m *Memory) alignedPage(addr uint32) *[pageSize]byte {
	if p := m.pages[addr/pageSize]; p != nil {
		return p
	}
	return m.page(addr)
}

// StoreWord implements Target.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	m.stats.Writes++
	p := m.page(addr)
	if o := addr % pageSize; o <= pageSize-4 {
		binary.LittleEndian.PutUint32(p[o:], v)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.storeByteRaw(addr+i, byte(v>>(8*i)))
	}
}

// PeekWord returns the aligned 32-bit word at addr without counting the
// access. Loaders and the block translator use it: functional statistics
// must reflect only emulated traffic, never host-side inspection. Untouched
// pages read as zero without being allocated.
func (m *Memory) PeekWord(addr uint32) uint32 {
	if addr >= m.size {
		panic(fmt.Sprintf("mem: %s: address 0x%x beyond size 0x%x", m.name, addr, m.size))
	}
	p := m.pages[addr/pageSize]
	if p == nil {
		return 0
	}
	if o := addr % pageSize; o <= pageSize-4 {
		return binary.LittleEndian.Uint32(p[o:])
	}
	return m.straddleWord(addr)
}

// straddleWord assembles the word at addr byte by byte, for a word that
// crosses a page boundary.
func (m *Memory) straddleWord(addr uint32) uint32 {
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.loadByteRaw(addr+i)) << (8 * i)
	}
	return v
}

func (m *Memory) loadByteRaw(addr uint32) byte { return m.page(addr)[addr%pageSize] }
func (m *Memory) storeByteRaw(addr uint32, b byte) {
	m.page(addr)[addr%pageSize] = b
}

// LoadByte implements Target.
func (m *Memory) LoadByte(addr uint32) byte {
	m.stats.Reads++
	return m.loadByteRaw(addr)
}

// StoreByte implements Target.
func (m *Memory) StoreByte(addr uint32, b byte) {
	m.stats.Writes++
	m.storeByteRaw(addr, b)
}

// WriteBytes copies data into memory starting at addr (no timing, used by
// program loaders).
func (m *Memory) WriteBytes(addr uint32, data []byte) {
	for i, b := range data {
		m.storeByteRaw(addr+uint32(i), b)
	}
}

// ReadBytes copies n bytes out of memory starting at addr (no timing).
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.loadByteRaw(addr + uint32(i))
	}
	return out
}

// Interconnect is the timing model of a path between a memory controller
// and a remote (shared) memory: a bus or a NoC. Implementations live in the
// bus and noc packages.
type Interconnect interface {
	// Transaction returns the cycles from now until a burst of the given
	// size completes for the initiator, including the target's service
	// latency, arbitration and contention.
	Transaction(initiator int, now uint64, bytes uint32, write bool, targetLatency uint64) uint64
	// Name identifies the interconnect instance.
	Name() string
}

// Routed is a Target reached through an Interconnect: the functional plane
// goes straight to the underlying target, while the timing plane pays the
// interconnect transaction cost.
type Routed struct {
	Under     Target
	IC        Interconnect
	Initiator int
}

// Latency implements Target.
func (r *Routed) Latency(now uint64, addr uint32, bytes uint32, write bool) uint64 {
	// The device's own latency is folded into the interconnect transaction
	// (the bus is held while the target services the access).
	target := r.Under.Latency(now, addr, bytes, write)
	return r.IC.Transaction(r.Initiator, now, bytes, write, target)
}

// LoadWord implements Target.
func (r *Routed) LoadWord(addr uint32) uint32 { return r.Under.LoadWord(addr) }

// StoreWord implements Target.
func (r *Routed) StoreWord(addr uint32, v uint32) { r.Under.StoreWord(addr, v) }

// LoadByte implements Target.
func (r *Routed) LoadByte(addr uint32) byte { return r.Under.LoadByte(addr) }

// StoreByte implements Target.
func (r *Routed) StoreByte(addr uint32, b byte) { r.Under.StoreByte(addr, b) }

// Size implements Target.
func (r *Routed) Size() uint32 { return r.Under.Size() }

// EachPage visits every touched, non-zero page of the memory in ascending
// address order, passing the page's base address and its contents. Pages
// that were allocated but hold only zeroes are skipped, so the iteration
// (and any digest built over it) depends only on the architectural contents
// of the memory, not on its allocation history.
func (m *Memory) EachPage(fn func(addr uint32, page []byte)) {
	for idx, p := range m.pages {
		if p == nil {
			continue
		}
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		fn(uint32(idx)*pageSize, p[:])
	}
}
