package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// RangeKind classifies the address ranges the memory controller routes to,
// mirroring the paper's three memory address ranges (private main memory,
// shared main memory, caches in front of them) plus memory-mapped devices
// such as the sniffer control registers.
type RangeKind int

// Range kinds.
const (
	KindPrivate RangeKind = iota
	KindShared
	KindDevice
)

// String returns the kind name.
func (k RangeKind) String() string {
	switch k {
	case KindPrivate:
		return "private"
	case KindShared:
		return "shared"
	case KindDevice:
		return "device"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Range maps [Base, Base+Target.Size()) in the core's address space onto a
// target component.
type Range struct {
	Name      string
	Base      uint32
	Target    Target
	Cacheable bool
	Kind      RangeKind
	// end caches Base+Target.Size() (exclusive, 33-bit safe) so the
	// per-access bound check costs no interface call. AddRange fills it in.
	end uint64
	// hitMem is the Memory a data-cache hit in this range reads and writes
	// when that hit needs no routing decision: the range is cacheable, not a
	// device, and its target is a Memory or a Memory behind an interconnect
	// (a hit does not reach the interconnect). nil otherwise. AddRange
	// fills it in.
	hitMem *Memory
}

// CtrlStats are the count-logging statistics of one memory controller.
type CtrlStats struct {
	Fetches      uint64
	PrivateReads uint64
	PrivateWrits uint64
	SharedReads  uint64
	SharedWrits  uint64
	DeviceOps    uint64
	StallCycles  uint64
}

// Controller captures all memory requests of one processing core and
// forwards them to the demanded memory according to the address (Section
// 3.2). One controller is attached to each core; it owns the core's private
// I/D caches and keeps the latency bookkeeping that, on the FPGA, drives the
// VIRTUAL_CLK_SUPPRESSION signal into the VPCM.
type Controller struct {
	name   string
	coreID int
	ranges []Range // sorted by Base
	icache *Cache
	dcache *Cache
	stats  CtrlStats
	// last memoises the most recently resolved range: core access streams
	// are strongly local (runs of fetches and data references into the same
	// private range), so two compares usually replace the binary search.
	last *Range
	// codeWrite, when set, observes every store this controller commits so
	// state *derived from* instruction memory (the cpu block cache) can be
	// invalidated. See SetCodeWriteHook.
	codeWrite func(addr, bytes uint32)
	// spills is set when the data cache is write-back and some cacheable
	// range is not private: a private miss may then evict a dirty line of
	// that range and write it back over the interconnect. See Private.
	spills bool
	// win is the hit window. See hitWindow.
	win hitWindow
}

// hitWindow is the last range a data access resolved whose dcache hits a
// controller serves without routing: one with a hitMem, on a controller with
// a data cache. A word access inside it costs one range-and-alignment
// compare (and, for a private-only load, the priv bit), one set walk of the
// cache directory and one 32-bit read or write of the memory's page. The
// page is loaded from the memory's page table on every access, because
// Memory.RestoreState replaces the table. Everything else the window assumes
// is fixed until AttachCaches or AddRange, which clear it.
type hitWindow struct {
	base  uint32
	words uint32 // words in the range, rounded up; 0 when there is no window
	priv  bool   // the range is private
	mem   *Memory
}

// holds reports whether addr is an aligned address inside the window:
// rotating its offset right by two moves a misaligned offset's low bits to
// the top, past any word count.
func (w *hitWindow) holds(addr uint32) bool {
	return bits.RotateLeft32(addr-w.base, -2) < w.words
}

// openWindow moves the hit window onto r, which has a hitMem. It leaves the
// window closed when there is no data cache.
func (c *Controller) openWindow(r *Range) {
	c.win = hitWindow{}
	if c.dcache != nil {
		c.win = hitWindow{base: r.Base, words: uint32((r.end - uint64(r.Base) + 3) / 4),
			priv: r.Kind == KindPrivate, mem: r.hitMem}
	}
}

// NewController creates a memory controller for core coreID.
func NewController(name string, coreID int) *Controller {
	return &Controller{name: name, coreID: coreID}
}

// Name returns the controller instance name.
func (c *Controller) Name() string { return c.name }

// CoreID returns the attached core's index.
func (c *Controller) CoreID() int { return c.coreID }

// Stats returns the count-logging statistics.
func (c *Controller) Stats() CtrlStats { return c.stats }

// ICache and DCache return the attached caches (nil when absent).
func (c *Controller) ICache() *Cache { return c.icache }

// DCache returns the attached data cache (nil when absent).
func (c *Controller) DCache() *Cache { return c.dcache }

// AttachCaches installs the private instruction and data caches. Either may
// be nil for an uncached configuration.
func (c *Controller) AttachCaches(icache, dcache *Cache) {
	c.icache, c.dcache = icache, dcache
	c.win = hitWindow{}
	c.updateSpills()
}

// Private reports whether a data access at the global address addr touches
// only this core's own state: the address resolves to a private range and
// the access cannot write back a dirty line of a non-private range (the
// data cache holds no such lines, or the line of addr is resident, so no
// refill evicts anything). It mutates no cache state. Unmapped addresses
// are not private: their fault is left to the caller's ordered path.
func (c *Controller) Private(addr uint32) bool {
	r := c.rangeFor(addr)
	if r == nil || r.Kind != KindPrivate {
		return false
	}
	return !c.spills || !r.Cacheable || c.dcache.resident(addr) >= 0
}

func (c *Controller) updateSpills() {
	c.spills = false
	if c.dcache == nil {
		return
	}
	for _, r := range c.ranges {
		if r.Cacheable && r.Kind == KindShared {
			c.spills = true
		}
	}
}

// SetCodeWriteHook installs fn, invoked with the global address and width of
// every store this controller commits — word and byte data stores and the
// write half of atomic swaps — after the bytes have reached the backing
// store. nil uninstalls.
//
// This is the fetch-coherence notification the plain cache invalidations
// cannot provide: the I/D caches are timing directories over an
// always-consistent backing store, so fetched *data* is never stale and
// Swap's dcache-only invalidation is sufficient for them. Any state keyed
// by code *address* that caches decoded instructions — the cpu package's
// basic-block cache — is a different matter: a store into a decoded range
// silently desynchronises it unless it observes every store, which is what
// this hook delivers. The hook fires unconditionally (the receiver is
// expected to range-filter cheaply) and synchronously on the storing core's
// goroutine, so self-modifying code takes effect before the next
// instruction issues.
func (c *Controller) SetCodeWriteHook(fn func(addr, bytes uint32)) { c.codeWrite = fn }

// AddRange registers an address range. Ranges must not overlap.
func (c *Controller) AddRange(r Range) error {
	if r.Target == nil {
		return fmt.Errorf("mem: %s: range %s has nil target", c.name, r.Name)
	}
	end := uint64(r.Base) + uint64(r.Target.Size())
	for _, e := range c.ranges {
		eEnd := uint64(e.Base) + uint64(e.Target.Size())
		if uint64(r.Base) < eEnd && uint64(e.Base) < end {
			return fmt.Errorf("mem: %s: range %s overlaps %s", c.name, r.Name, e.Name)
		}
	}
	c.ranges = append(c.ranges, r)
	sort.Slice(c.ranges, func(i, j int) bool { return c.ranges[i].Base < c.ranges[j].Base })
	for i := range c.ranges {
		e := &c.ranges[i]
		e.end = uint64(e.Base) + uint64(e.Target.Size())
		e.hitMem = nil
		if e.Cacheable && e.Kind != KindDevice {
			t := e.Target
			if rt, ok := t.(*Routed); ok {
				t = rt.Under
			}
			e.hitMem, _ = t.(*Memory)
		}
	}
	c.last = nil // the sort may have moved the memoised entry
	c.win = hitWindow{}
	c.updateSpills()
	return nil
}

func (c *Controller) rangeFor(addr uint32) *Range {
	if r := c.last; r != nil && addr >= r.Base && uint64(addr) < r.end {
		return r
	}
	// Binary search over sorted bases.
	lo, hi := 0, len(c.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.ranges[mid].Base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	r := &c.ranges[lo-1]
	if uint64(addr) < r.end {
		c.last = r
		return r
	}
	return nil
}

// Resolve maps a global address to the target that backs it and the
// target-local address (nil when unmapped).
func (c *Controller) Resolve(addr uint32) (Target, uint32) {
	if r := c.rangeFor(addr); r != nil {
		return r.Target, addr - r.Base
	}
	return nil, 0
}

// FaultError describes an illegal memory reference.
type FaultError struct {
	Ctrl  string
	Addr  uint32
	Cause string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("mem: %s: fault at 0x%08x: %s", e.Ctrl, e.Addr, e.Cause)
}

func (c *Controller) fault(addr uint32, cause string) error {
	return &FaultError{Ctrl: c.name, Addr: addr, Cause: cause}
}

// account charges one data access to a range of the given kind to the
// count-logging statistics.
func (c *Controller) account(kind RangeKind, write bool, stall uint64) {
	c.stats.StallCycles += stall
	switch {
	case kind == KindPrivate && write:
		c.stats.PrivateWrits++
	case kind == KindPrivate:
		c.stats.PrivateReads++
	case kind == KindShared && write:
		c.stats.SharedWrits++
	case kind == KindShared:
		c.stats.SharedReads++
	default:
		c.stats.DeviceOps++
	}
}

// timedAccess charges one reference of the given size through the cache (if
// cacheable) or directly, and returns the stall cycles.
func (c *Controller) timedAccess(cache *Cache, now uint64, r *Range, addr uint32, bytes uint32, write bool) uint64 {
	if r.Kind == KindDevice || !r.Cacheable || cache == nil {
		return r.Target.Latency(now, addr-r.Base, bytes, write)
	}
	if hit, stall := cache.Access(addr, write); hit {
		return stall
	}
	return c.refillMiss(cache, now, r, addr, write)
}

// refillMiss charges a write-back/write-allocate miss: install the line,
// write back the dirty victim (if any) and stream the new line in.
func (c *Controller) refillMiss(cache *Cache, now uint64, r *Range, addr uint32, write bool) uint64 {
	line := cache.Config().LineBytes
	victimAddr, victimDirty := cache.Refill(addr, write)
	var extra uint64
	if victimDirty {
		if vt, vlocal := c.Resolve(victimAddr); vt != nil {
			extra += vt.Latency(now, vlocal, line, true)
		}
	}
	lineLocal := (addr - r.Base) &^ (line - 1)
	extra += r.Target.Latency(now+extra, lineLocal, line, false)
	return cache.Config().HitLatency + extra
}

// Fetch reads one instruction word through the instruction cache.
func (c *Controller) Fetch(now uint64, addr uint32) (uint32, uint64, error) {
	if addr%4 != 0 {
		return 0, 0, c.fault(addr, "unaligned instruction fetch")
	}
	r := c.rangeFor(addr)
	if r == nil {
		return 0, 0, c.fault(addr, "fetch from unmapped address")
	}
	stall := c.timedAccess(c.icache, now, r, addr, 4, false)
	v := r.Target.LoadWord(addr - r.Base)
	c.stats.StallCycles += stall
	c.stats.Fetches++
	return v, stall, nil
}

// ReadWord performs a 32-bit data load.
func (c *Controller) ReadWord(now uint64, addr uint32) (uint32, uint64, error) {
	if c.win.holds(addr) {
		if v, stall, ok := c.ReadWordHit(addr, false); ok {
			return v, stall, nil
		}
	}
	if addr%4 != 0 {
		return 0, 0, c.fault(addr, "unaligned word load")
	}
	r := c.rangeFor(addr)
	if r == nil {
		return 0, 0, c.fault(addr, "load from unmapped address")
	}
	if r.hitMem != nil {
		c.openWindow(r)
	}
	stall := c.timedAccess(c.dcache, now, r, addr, 4, false)
	v := r.Target.LoadWord(addr - r.Base)
	c.account(r.Kind, false, stall)
	return v, stall, nil
}

// ReadWordHit is the block-dispatch load. When the aligned word load at addr
// hits the data cache in a cacheable, non-device range, it completes the
// load with every effect ReadWord has (cache statistics and LRU stamp,
// controller statistics, the backing memory's read count) and reports ok.
// Otherwise it reports !ok and changes nothing but the range memo and the
// hit window, leaving the load to ReadWord. With privateOnly set it also
// refuses non-private ranges, so a successful call proves what Private
// would: the load touched only this core's own state (a hit refills nothing,
// so it cannot write back another range's line).
func (c *Controller) ReadWordHit(addr uint32, privateOnly bool) (v uint32, stall uint64, ok bool) {
	if !c.win.holds(addr) || privateOnly && !c.win.priv {
		// Outside the window. The refusals stay inline, so a load the
		// window cannot serve costs a few compares and no call.
		r := c.last
		if r == nil || addr < r.Base || uint64(addr) >= r.end {
			if r = c.rangeFor(addr); r == nil {
				return 0, 0, false
			}
		}
		if r.hitMem == nil || addr%4 != 0 || privateOnly && r.Kind != KindPrivate ||
			c.dcache == nil {
			return 0, 0, false
		}
		c.openWindow(r)
	}
	d := c.dcache
	mi := d.resident(addr)
	if mi < 0 {
		return 0, 0, false
	}
	d.touch(mi, false)
	stall = d.cfg.HitLatency
	c.stats.StallCycles += stall
	if c.win.priv {
		c.stats.PrivateReads++
	} else {
		c.stats.SharedReads++
	}
	m, off := c.win.mem, addr-c.win.base
	m.stats.Reads++
	return binary.LittleEndian.Uint32(m.alignedPage(off)[off&(pageSize-4):]), stall, true
}

// WriteWord performs a 32-bit data store.
func (c *Controller) WriteWord(now uint64, addr uint32, v uint32) (uint64, error) {
	if c.win.holds(addr) {
		if mi := c.dcache.resident(addr); mi >= 0 {
			// The store twin of ReadWordHit's hit.
			d := c.dcache
			d.touch(mi, true)
			stall := d.cfg.HitLatency
			c.stats.StallCycles += stall
			if c.win.priv {
				c.stats.PrivateWrits++
			} else {
				c.stats.SharedWrits++
			}
			m, off := c.win.mem, addr-c.win.base
			m.stats.Writes++
			binary.LittleEndian.PutUint32(m.alignedPage(off)[off&(pageSize-4):], v)
			if c.codeWrite != nil {
				c.codeWrite(addr, 4)
			}
			return stall, nil
		}
	}
	if addr%4 != 0 {
		return 0, c.fault(addr, "unaligned word store")
	}
	r := c.rangeFor(addr)
	if r == nil {
		return 0, c.fault(addr, "store to unmapped address")
	}
	if r.hitMem != nil {
		c.openWindow(r)
	}
	stall := c.timedAccess(c.dcache, now, r, addr, 4, true)
	r.Target.StoreWord(addr-r.Base, v)
	if c.codeWrite != nil {
		c.codeWrite(addr, 4)
	}
	c.account(r.Kind, true, stall)
	return stall, nil
}

// ReadByte performs an 8-bit data load.
func (c *Controller) LoadByte(now uint64, addr uint32) (byte, uint64, error) {
	r := c.rangeFor(addr)
	if r == nil {
		return 0, 0, c.fault(addr, "load from unmapped address")
	}
	stall := c.timedAccess(c.dcache, now, r, addr, 1, false)
	v := r.Target.LoadByte(addr - r.Base)
	c.account(r.Kind, false, stall)
	return v, stall, nil
}

// WriteByte performs an 8-bit data store.
func (c *Controller) StoreByte(now uint64, addr uint32, b byte) (uint64, error) {
	r := c.rangeFor(addr)
	if r == nil {
		return 0, c.fault(addr, "store to unmapped address")
	}
	stall := c.timedAccess(c.dcache, now, r, addr, 1, true)
	r.Target.StoreByte(addr-r.Base, b)
	if c.codeWrite != nil {
		c.codeWrite(addr, 1)
	}
	c.account(r.Kind, true, stall)
	return stall, nil
}

// Swap performs an atomic 32-bit exchange, bypassing (and invalidating in)
// the data cache: the returned value is the previous memory word. Like all
// store paths it notifies the code-write hook — the data cache is the only
// *cache* that needs invalidating (the I-cache is a timing directory and
// never serves stale data), but decoded-state layers above fetch do.
func (c *Controller) Swap(now uint64, addr uint32, v uint32) (uint32, uint64, error) {
	if addr%4 != 0 {
		return 0, 0, c.fault(addr, "unaligned atomic swap")
	}
	r := c.rangeFor(addr)
	if r == nil {
		return 0, 0, c.fault(addr, "swap on unmapped address")
	}
	if c.dcache != nil {
		c.dcache.Invalidate(addr)
	}
	local := addr - r.Base
	// Read-modify-write held as a single bus transaction: charge one read
	// plus one extra cycle for the locked write phase.
	stall := r.Target.Latency(now, local, 4, true) + 1
	old := r.Target.LoadWord(local)
	r.Target.StoreWord(local, v)
	if c.codeWrite != nil {
		c.codeWrite(addr, 4)
	}
	c.account(r.Kind, true, stall)
	return old, stall, nil
}

// FetchPath is a pre-resolved instruction-fetch channel over one address
// range backed directly by a plain Memory. It lets a block-dispatch kernel
// charge fetch timing and statistics without re-resolving the range or
// performing the functional word load on every instruction. Resolution is
// only valid while the controller's address map is stable; build the
// platform fully before resolving paths.
type FetchPath struct {
	ctrl *Controller
	r    *Range
	m    *Memory
	base uint32
	end  uint64 // exclusive global end of the range
	// cacheable folds the per-access range checks of timedAccess that are
	// fixed once the platform is built (kind and cacheability).
	cacheable bool
}

// FetchPathFor resolves the fetch path covering addr, or nil when the
// address is unmapped or not backed by a plain Memory (interconnect-routed
// shared memory and devices are excluded on purpose: fetching through them
// has side effects a block kernel must not pre-execute or skip).
func (c *Controller) FetchPathFor(addr uint32) *FetchPath {
	r := c.rangeFor(addr)
	if r == nil {
		return nil
	}
	m, ok := r.Target.(*Memory)
	if !ok {
		return nil
	}
	return &FetchPath{ctrl: c, r: r, m: m, base: r.Base,
		end:       uint64(r.Base) + uint64(m.Size()),
		cacheable: r.Kind != KindDevice && r.Cacheable}
}

// Contains reports whether the global address lies inside the path's range.
func (fp *FetchPath) Contains(addr uint32) bool {
	return addr >= fp.base && uint64(addr) < fp.end
}

// PeekWord reads the aligned word at global address addr with no timing or
// statistics side effects (block-translation use). addr must be in range.
func (fp *FetchPath) PeekWord(addr uint32) uint32 {
	return fp.m.PeekWord(addr - fp.base)
}

// fetchSeg is one icache-line-aligned span of a translated block's fetch
// stream: instruction indices first..last (inclusive, zero-based from the
// block entry) all fetch from the line containing addr.
type fetchSeg struct {
	addr  uint32 // global address of the segment's first instruction
	first uint32 // index of the segment's first instruction in the block
	last  uint32 // index of the segment's last instruction in the block
	line  int32  // flat icache line index found by the last successful Ready
}

// BatchPlan is the precomputed icache plan of one translated block: its
// line segmentation plus the resident-line indices of the last successful
// probe, tagged with the directory epoch they were validated at. While the
// epoch stands still (no refill/invalidate/restore), re-entering the
// block costs one compare instead of a directory walk, and a whole run of
// hitting fetches settles in one batch with effects bit-identical to the
// per-instruction path. The zero value is an empty plan; InitBatchPlan
// fills one in place.
type BatchPlan struct {
	segs  []fetchSeg
	epoch uint64
	ok    bool
}

// segChunk is the segment count of one PlanStore chunk: a few blocks'
// worth, so a translator's unused tail stays small.
const segChunk = 32

// PlanStore carves BatchPlan segment storage from small chunks, so
// building a plan does not allocate per plan. The zero value is ready to
// use. Carved storage is never handed out twice, so a plan stays intact
// for as long as anything references it; resetting a store to its zero
// value abandons the rest of its current chunk.
type PlanStore struct{ free []fetchSeg }

func (st *PlanStore) take(n int) []fetchSeg {
	if n > len(st.free) {
		st.free = make([]fetchSeg, max(n, segChunk))
	}
	segs := st.free[:n:n]
	st.free = st.free[n:]
	return segs
}

// InitBatchPlan fills p with the fetch plan for a straight-line block of n
// instructions entered at the global address entry, taking its storage
// from st. It reports false, leaving p empty, when the path cannot batch
// (uncacheable range or no icache).
func (fp *FetchPath) InitBatchPlan(p *BatchPlan, entry, n uint32, st *PlanStore) bool {
	ic := fp.ctrl.icache
	if !fp.cacheable || ic == nil || n == 0 {
		return false
	}
	lineBytes := uint32(1) << ic.lineShift
	lines := (entry+4*n-1)>>ic.lineShift - entry>>ic.lineShift + 1
	*p = BatchPlan{segs: st.take(int(lines)), epoch: ^uint64(0)}
	k := 0
	for i := uint32(0); i < n; k++ {
		a := entry + 4*i
		last := i + ((a|(lineBytes-1))+1-a)/4 - 1
		if last > n-1 {
			last = n - 1
		}
		p.segs[k] = fetchSeg{addr: a, first: i, last: last, line: -1}
		i = last + 1
	}
	return true
}

// Ready reports whether every line of the plan is currently resident, so
// the block's fetch stream is guaranteed all hits, and returns the
// per-fetch hit latency. The probe mutates no cache state; when it fails
// the caller falls back to per-instruction Fetch, which performs the real
// directory update including the miss (and thereby moves the epoch, which
// re-arms the plan).
func (fp *FetchPath) Ready(p *BatchPlan) (hitLatency uint64, ok bool) {
	c := fp.ctrl
	ic := c.icache
	if ic == nil {
		return 0, false
	}
	if p.epoch == ic.epoch {
		if p.ok {
			return ic.cfg.HitLatency, true
		}
		return 0, false
	}
	p.epoch = ic.epoch
	for i := range p.segs {
		s := &p.segs[i]
		if s.line = ic.resident(s.addr); s.line < 0 {
			p.ok = false
			return 0, false
		}
	}
	p.ok = true
	return ic.cfg.HitLatency, true
}

// Settle applies the exact directory and statistics effects of n fetches of
// a Ready block — up to a full pass per execution, across any number of
// back-to-back executions (n may exceed the block length): per-line LRU
// stamps, hit/read counters, controller fetch/stall accounting and the
// backing memory's functional read count all end up bit-identical to n
// individual Fetch calls. Nothing may touch the icache between Ready and
// Settle (data accesses go to the dcache; Swap invalidates only the dcache,
// and a pending batch is settled before any per-instruction fetch), so the
// plan's line indices still name the resident lines here.
func (fp *FetchPath) Settle(p *BatchPlan, n uint32) {
	c := fp.ctrl
	ic := c.icache
	base := ic.stamp
	ic.stamp += uint64(n)
	ic.stats.Reads += uint64(n)
	ic.stats.Hits += uint64(n)
	blockLen := p.segs[len(p.segs)-1].last + 1
	if n <= blockLen {
		// Single (possibly partial) pass: fetch j (0-based) takes stamp
		// base+j+1, so a line's final LRU is that of its last fetched slot.
		for i := range p.segs {
			s := &p.segs[i]
			if s.first >= n {
				break
			}
			end := s.last
			if end > n-1 {
				end = n - 1
			}
			ic.lines[s.line].lru = base + uint64(end) + 1
		}
	} else {
		// k full passes then a final pass of rem fetches (1 <= rem <=
		// blockLen): a seg reached by the final pass was last fetched there,
		// any other seg in the last full pass.
		k := uint64(n / blockLen)
		rem := n % blockLen
		if rem == 0 {
			k--
			rem = blockLen
		}
		full := k * uint64(blockLen)
		for i := range p.segs {
			s := &p.segs[i]
			var lastIdx uint64
			if s.first < rem {
				e := s.last
				if e > rem-1 {
					e = rem - 1
				}
				lastIdx = full + uint64(e)
			} else {
				lastIdx = full - uint64(blockLen) + uint64(s.last)
			}
			ic.lines[s.line].lru = base + lastIdx + 1
		}
	}
	c.stats.Fetches += uint64(n)
	c.stats.StallCycles += uint64(n) * ic.cfg.HitLatency
	fp.m.stats.Reads += uint64(n)
}

// Fetch charges one instruction fetch at the aligned, in-range global
// address addr — identical cache-directory update, stall computation and
// functional read accounting to Controller.Fetch —
// without the functional word load. Callers execute from pre-decoded state
// whose coherence with memory is maintained by the code-write hook; the
// backing memory's read counter is still bumped so functional traffic
// statistics match the loading fetch exactly.
func (fp *FetchPath) Fetch(now uint64, addr uint32) uint64 {
	c := fp.ctrl
	// Inlined timedAccess, specialised to a read on a pre-resolved range:
	// the icache hit is the overwhelmingly common case on this path, so it
	// pays only the directory probe, not the generic routing checks.
	var stall uint64
	if ic := c.icache; fp.cacheable && ic != nil {
		if hit, s := ic.Access(addr, false); hit {
			stall = s
		} else {
			stall = c.refillMiss(ic, now, fp.r, addr, false)
		}
	} else {
		stall = fp.r.Target.Latency(now, addr-fp.base, 4, false)
	}
	fp.m.stats.Reads++
	c.stats.StallCycles += stall
	c.stats.Fetches++
	return stall
}
