package mem

import (
	"fmt"
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
}

// Access describes one memory reference, delivered to the controller's
// observer. This is the signal bundle an event-logging HW sniffer captures.
type Access struct {
	Cycle uint64
	Core  int
	Addr  uint32
	Kind  RangeKind
	Write bool
	Fetch bool
	Stall uint64
}

// Observer receives every access routed through a controller.
type Observer func(Access)

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
	name     string
	coreID   int
	ranges   []Range // sorted by Base
	icache   *Cache
	dcache   *Cache
	observer Observer
	stats    CtrlStats
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

// ResetStats zeroes the statistics counters.
func (c *Controller) ResetStats() { c.stats = CtrlStats{} }

// ICache and DCache return the attached caches (nil when absent).
func (c *Controller) ICache() *Cache { return c.icache }

// DCache returns the attached data cache (nil when absent).
func (c *Controller) DCache() *Cache { return c.dcache }

// AttachCaches installs the private instruction and data caches. Either may
// be nil for an uncached configuration.
func (c *Controller) AttachCaches(icache, dcache *Cache) {
	c.icache, c.dcache = icache, dcache
	c.updateSpills()
}

// SetObserver installs the access observer (event-logging sniffer hook).
func (c *Controller) SetObserver(o Observer) { c.observer = o }

// Observed reports whether an access observer is installed. Every access,
// instruction fetches included, is then visible outside the core.
func (c *Controller) Observed() bool { return c.observer != nil }

// Private reports whether a data access at the global address addr touches
// only this core's own state: the address resolves to a private range, no
// observer is installed, and the access cannot write back a dirty line of
// a non-private range (the data cache holds no such lines, or the line of
// addr is resident, so no refill evicts anything). It mutates no cache
// state. Unmapped addresses are not private: their fault is left to the
// caller's ordered path.
func (c *Controller) Private(addr uint32) bool {
	if c.observer != nil {
		return false
	}
	r := c.rangeFor(addr)
	if r == nil || r.Kind != KindPrivate {
		return false
	}
	return !c.spills || !r.Cacheable || !c.dcache.enable || c.dcache.resident(addr) >= 0
}

func (c *Controller) updateSpills() {
	c.spills = false
	if c.dcache == nil || c.dcache.cfg.WriteThrough {
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
	}
	c.last = nil // the sort may have moved the memoised entry
	c.updateSpills()
	return nil
}

// Ranges returns the registered ranges in address order.
func (c *Controller) Ranges() []Range { return c.ranges }

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

// Resolve implements the cache Resolver over this controller's address map.
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

func (c *Controller) account(a Access) {
	c.stats.StallCycles += a.Stall
	switch {
	case a.Fetch:
		c.stats.Fetches++
	case a.Kind == KindPrivate && a.Write:
		c.stats.PrivateWrits++
	case a.Kind == KindPrivate:
		c.stats.PrivateReads++
	case a.Kind == KindShared && a.Write:
		c.stats.SharedWrits++
	case a.Kind == KindShared:
		c.stats.SharedReads++
	default:
		c.stats.DeviceOps++
	}
	if c.observer != nil {
		c.observer(a)
	}
}

// timedAccess charges one reference of the given size through the cache (if
// cacheable) or directly, and returns the stall cycles.
func (c *Controller) timedAccess(cache *Cache, now uint64, r *Range, addr uint32, bytes uint32, write bool) uint64 {
	local := addr - r.Base
	if r.Kind == KindDevice || !r.Cacheable || cache == nil || !cache.Enabled() {
		return r.Target.Latency(now, local, bytes, write)
	}
	hit, stall := cache.Access(addr, write)
	if write && cache.Config().WriteThrough {
		// Write-through: the store always reaches the next level; a store
		// miss does not allocate.
		through := r.Target.Latency(now, local, bytes, true)
		if hit {
			return stall + through
		}
		return through
	}
	if hit {
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
	c.account(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: r.Kind, Fetch: true, Stall: stall})
	return v, stall, nil
}

// ReadWord performs a 32-bit data load.
func (c *Controller) ReadWord(now uint64, addr uint32) (uint32, uint64, error) {
	// Hot path: an aligned load inside the memoised range hitting the
	// dcache's memoised line — the inner-loop shape of compute-bound code.
	// Every effect (cache stamp/LRU/stats, controller stats, functional
	// load, observer) is identical to the general path below, straight-lined.
	if r := c.last; r != nil && addr%4 == 0 &&
		addr >= r.Base && uint64(addr) < r.end && r.Cacheable && r.Kind != KindDevice {
		if d := c.dcache; d != nil && d.enable {
			line := addr >> d.lineShift
			mi := d.memoIdx
			if mi < 0 || line != d.memoLine {
				if m2 := d.memoIdx2; m2 >= 0 && line == d.memoLine2 {
					d.memoLine2, d.memoIdx2 = d.memoLine, d.memoIdx
					d.memoLine, d.memoIdx = line, m2
					mi = m2
				} else {
					mi = -1
				}
			}
			if mi >= 0 {
				d.stats.Reads++
				d.stats.Hits++
				d.stamp++
				d.lines[mi].lru = d.stamp
				stall := d.cfg.HitLatency
				v := r.Target.LoadWord(addr - r.Base)
				c.stats.StallCycles += stall
				if r.Kind == KindPrivate {
					c.stats.PrivateReads++
				} else {
					c.stats.SharedReads++
				}
				if c.observer != nil {
					c.observer(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: r.Kind, Stall: stall})
				}
				return v, stall, nil
			}
		}
	}
	if addr%4 != 0 {
		return 0, 0, c.fault(addr, "unaligned word load")
	}
	r := c.rangeFor(addr)
	if r == nil {
		return 0, 0, c.fault(addr, "load from unmapped address")
	}
	stall := c.timedAccess(c.dcache, now, r, addr, 4, false)
	v := r.Target.LoadWord(addr - r.Base)
	c.account(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: r.Kind, Stall: stall})
	return v, stall, nil
}

// WriteWord performs a 32-bit data store.
func (c *Controller) WriteWord(now uint64, addr uint32, v uint32) (uint64, error) {
	// Hot path: the store twin of ReadWord's memo-hit path (write-back
	// caches only — write-through stores always reach the next level).
	if r := c.last; r != nil && addr%4 == 0 &&
		addr >= r.Base && uint64(addr) < r.end && r.Cacheable && r.Kind != KindDevice {
		if d := c.dcache; d != nil && d.enable && !d.cfg.WriteThrough {
			line := addr >> d.lineShift
			mi := d.memoIdx
			if mi < 0 || line != d.memoLine {
				if m2 := d.memoIdx2; m2 >= 0 && line == d.memoLine2 {
					d.memoLine2, d.memoIdx2 = d.memoLine, d.memoIdx
					d.memoLine, d.memoIdx = line, m2
					mi = m2
				} else {
					mi = -1
				}
			}
			if mi >= 0 {
				d.stats.Writes++
				d.stats.Hits++
				d.stamp++
				ln := &d.lines[mi]
				ln.lru = d.stamp
				ln.dirty = true
				stall := d.cfg.HitLatency
				r.Target.StoreWord(addr-r.Base, v)
				if c.codeWrite != nil {
					c.codeWrite(addr, 4)
				}
				c.stats.StallCycles += stall
				if r.Kind == KindPrivate {
					c.stats.PrivateWrits++
				} else {
					c.stats.SharedWrits++
				}
				if c.observer != nil {
					c.observer(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: r.Kind, Write: true, Stall: stall})
				}
				return stall, nil
			}
		}
	}
	if addr%4 != 0 {
		return 0, c.fault(addr, "unaligned word store")
	}
	r := c.rangeFor(addr)
	if r == nil {
		return 0, c.fault(addr, "store to unmapped address")
	}
	stall := c.timedAccess(c.dcache, now, r, addr, 4, true)
	r.Target.StoreWord(addr-r.Base, v)
	if c.codeWrite != nil {
		c.codeWrite(addr, 4)
	}
	c.account(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: r.Kind, Write: true, Stall: stall})
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
	c.account(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: r.Kind, Stall: stall})
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
	c.account(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: r.Kind, Write: true, Stall: stall})
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
	c.account(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: r.Kind, Write: true, Stall: stall})
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
	// fixed once the platform is built (kind and cacheability); only the
	// cache's runtime enable bit is left for fetch time.
	cacheable bool
}

// FetchPathFor resolves the fetch path covering addr, or nil when the
// address is unmapped or not backed by a plain Memory (interconnect-routed
// shared memory, L2-cached targets and devices are excluded on purpose:
// fetching through them has side effects a block kernel must not
// pre-execute or skip).
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
// epoch stands still (no refill/invalidate/flush/restore), re-entering the
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
	if ic == nil || !ic.enable || c.observer != nil {
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
			ln := &ic.lines[s.line]
			ln.lru = base + uint64(end) + 1
			ic.memoLine, ic.memoIdx = s.addr>>ic.lineShift, s.line
		}
	} else {
		// k full passes then a final pass of rem fetches (1 <= rem <=
		// blockLen): a seg reached by the final pass was last fetched there,
		// any other seg in the last full pass. The memo ends on the line of
		// the very last fetch, exactly as repeated Access calls leave it.
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
			ln := &ic.lines[s.line]
			ln.lru = base + lastIdx + 1
			if s.first <= rem-1 && rem-1 <= s.last {
				ic.memoLine, ic.memoIdx = s.addr>>ic.lineShift, s.line
			}
		}
	}
	c.stats.Fetches += uint64(n)
	c.stats.StallCycles += uint64(n) * ic.cfg.HitLatency
	fp.m.stats.Reads += uint64(n)
}

// Fetch charges one instruction fetch at the aligned, in-range global
// address addr — identical cache-directory update, stall computation,
// functional read accounting and observer delivery to Controller.Fetch —
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
	if ic := c.icache; fp.cacheable && ic != nil && ic.enable {
		if hit, s := ic.Access(addr, false); hit {
			stall = s
		} else {
			stall = c.refillMiss(ic, now, fp.r, addr, false)
		}
	} else {
		stall = fp.r.Target.Latency(now, addr-fp.base, 4, false)
	}
	fp.m.stats.Reads++
	// Inlined account for the fetch kind; the Access record is only
	// materialised when a sniffer observer is actually attached.
	c.stats.StallCycles += stall
	c.stats.Fetches++
	if c.observer != nil {
		c.observer(Access{Cycle: now, Core: c.coreID, Addr: addr, Kind: fp.r.Kind, Fetch: true, Stall: stall})
	}
	return stall
}
