package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMemoryLoadStore(t *testing.T) {
	m := NewMemory("ram", 64*1024, 3)
	m.StoreWord(0, 0xDEADBEEF)
	if got := m.LoadWord(0); got != 0xDEADBEEF {
		t.Errorf("LoadWord(0) = %#x", got)
	}
	// Little-endian byte layout.
	if got := m.LoadByte(0); got != 0xEF {
		t.Errorf("LoadByte(0) = %#x, want 0xEF (little endian)", got)
	}
	if got := m.LoadByte(3); got != 0xDE {
		t.Errorf("LoadByte(3) = %#x, want 0xDE", got)
	}
	m.StoreByte(1, 0x00)
	if got := m.LoadWord(0); got != 0xDEAD00EF {
		t.Errorf("after byte store: %#x", got)
	}
	// Cross-page word access.
	m.StoreWord(pageSize-2, 0x11223344)
	if got := m.LoadWord(pageSize - 2); got != 0x11223344 {
		t.Errorf("cross-page word = %#x", got)
	}
	// Untouched memory reads as zero.
	if got := m.LoadWord(40000); got != 0 {
		t.Errorf("fresh memory = %#x, want 0", got)
	}
}

func TestMemoryLatencyBurst(t *testing.T) {
	m := NewMemory("ram", 4096, 10)
	if got := m.Latency(0, 0, 4, false); got != 10 {
		t.Errorf("single word latency = %d, want 10", got)
	}
	// 8-word burst streams after the first access: 10 + 7.
	if got := m.Latency(0, 0, 32, false); got != 17 {
		t.Errorf("burst latency = %d, want 17", got)
	}
}

type sinkRec struct {
	total uint64
	calls int
}

func (s *sinkRec) AddSuppression(source string, cycles uint64) {
	s.total += cycles
	s.calls++
}

func TestMemoryPhysicalLatencySuppression(t *testing.T) {
	m := NewMemory("ddr", 4096, 10)
	var sink sinkRec
	m.SetPhysicalLatency(25, &sink)
	m.Latency(0, 0, 4, false)
	if sink.total != 15 || sink.calls != 1 {
		t.Errorf("suppression = %d cycles in %d calls, want 15 in 1", sink.total, sink.calls)
	}
	// Physical device faster than model: no suppression.
	m2 := NewMemory("bram", 4096, 10)
	var sink2 sinkRec
	m2.SetPhysicalLatency(1, &sink2)
	m2.Latency(0, 0, 4, false)
	if sink2.calls != 0 {
		t.Errorf("unexpected suppression for fast device")
	}
}

func TestMemoryWriteReadBytes(t *testing.T) {
	m := NewMemory("ram", 4096, 1)
	data := []byte{1, 2, 3, 4, 5}
	m.WriteBytes(100, data)
	got := m.ReadBytes(100, 5)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("ReadBytes = %v", got)
		}
	}
}

// TestMemoryRestoreState: a saved memory restores to the same pages in
// ascending order, and a state whose pages are misaligned, out of range,
// short or not strictly ascending is rejected without touching the memory.
func TestMemoryRestoreState(t *testing.T) {
	m := NewMemory("ram", 4*pageSize, 1)
	m.StoreWord(3*pageSize+8, 7)
	m.StoreWord(pageSize, 5)
	m.StoreWord(2*pageSize, 0) // touched but zero: not saved
	saved := m.SaveState()
	var addrs []uint32
	for _, p := range saved.Pages {
		addrs = append(addrs, p.Addr)
	}
	if !reflect.DeepEqual(addrs, []uint32{pageSize, 3 * pageSize}) {
		t.Fatalf("saved pages at %#x, want 0x1000 and 0x3000", addrs)
	}
	fresh := NewMemory("ram", 4*pageSize, 1)
	if err := fresh.RestoreState(saved); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.SaveState(), saved) || fresh.PeekWord(3*pageSize+8) != 7 {
		t.Fatal("restored memory differs from the saved one")
	}

	page := func(addr uint32, n int) PageState { return PageState{Addr: addr, Data: make([]byte, n)} }
	for _, tc := range []struct {
		name  string
		pages []PageState
	}{
		{"misaligned", []PageState{page(pageSize+4, pageSize)}},
		{"beyond size", []PageState{page(4*pageSize, pageSize)}},
		{"short page", []PageState{page(pageSize, pageSize-1)}},
		{"repeated", []PageState{page(pageSize, pageSize), page(pageSize, pageSize)}},
		{"descending", []PageState{page(pageSize, pageSize), page(pageSize, pageSize), page(0, pageSize)}},
	} {
		if err := fresh.RestoreState(MemoryState{Pages: tc.pages}); err == nil {
			t.Errorf("%s: RestoreState accepted %d pages", tc.name, len(tc.pages))
		}
		if !reflect.DeepEqual(fresh.SaveState(), saved) {
			t.Fatalf("%s: a rejected state changed the memory", tc.name)
		}
	}
}

func TestMemoryOutOfRangePanics(t *testing.T) {
	m := NewMemory("ram", 16, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	m.LoadWord(1 << 20)
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Name: "d", SizeBytes: 8192, LineBytes: 32, Assoc: 2, HitLatency: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "z", SizeBytes: 0, LineBytes: 32, Assoc: 1},
		{Name: "l", SizeBytes: 8192, LineBytes: 24, Assoc: 1},
		{Name: "l2", SizeBytes: 8192, LineBytes: 2, Assoc: 1},
		{Name: "a", SizeBytes: 8192, LineBytes: 32, Assoc: 0},
		{Name: "s", SizeBytes: 8192 + 32, LineBytes: 32, Assoc: 1},
		{Name: "p", SizeBytes: 96, LineBytes: 16, Assoc: 2}, // 3 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", c)
		}
	}
}

func TestCacheDirectMappedConflicts(t *testing.T) {
	// 4 lines of 16B, direct-mapped: addresses 0 and 64 conflict.
	c := NewCache(CacheConfig{Name: "dm", SizeBytes: 64, LineBytes: 16, Assoc: 1, HitLatency: 1})
	if hit, _ := c.Access(0, false); hit {
		t.Fatal("cold access hit")
	}
	c.Refill(0, false)
	if hit, _ := c.Access(4, false); !hit {
		t.Fatal("same line should hit")
	}
	if hit, _ := c.Access(64, false); hit {
		t.Fatal("conflicting line hit")
	}
	c.Refill(64, false)
	if hit, _ := c.Access(0, false); hit {
		t.Fatal("evicted line still hits")
	}
	s := c.Stats()
	// Accesses: miss(0), hit(4), miss(64), miss(0 after eviction).
	if s.Misses != 3 || s.Hits != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheSetAssociativeLRU(t *testing.T) {
	// 2-way, 2 sets, 16B lines: set 0 holds lines 0, 32, 64, ...
	c := NewCache(CacheConfig{Name: "sa", SizeBytes: 64, LineBytes: 16, Assoc: 2, HitLatency: 1})
	c.Access(0, false)
	c.Refill(0, false)
	c.Access(32, false)
	c.Refill(32, false)
	// Touch 0 so 32 becomes LRU.
	c.Access(0, false)
	c.Access(64, false)
	c.Refill(64, false) // must evict 32
	if !c.Contains(0) {
		t.Error("MRU line 0 was evicted")
	}
	if c.Contains(32) {
		t.Error("LRU line 32 survived")
	}
	if !c.Contains(64) {
		t.Error("new line 64 not resident")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := NewCache(CacheConfig{Name: "wb", SizeBytes: 32, LineBytes: 16, Assoc: 1, HitLatency: 1})
	c.Access(0, true) // miss
	c.Refill(0, true) // dirty install
	c.Access(64, false)
	va, vd := c.Refill(64, false)
	if !vd || va != 0 {
		t.Errorf("victim = (%#x, %v), want dirty line 0", va, vd)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
	// Clean eviction: no writeback.
	c.Access(128, false)
	_, vd = c.Refill(128, false)
	if vd {
		t.Error("clean victim reported dirty")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(CacheConfig{Name: "inv", SizeBytes: 64, LineBytes: 16, Assoc: 2, HitLatency: 1})
	c.Access(0, true)
	c.Refill(0, true)
	c.Invalidate(4) // same line
	if c.Contains(0) {
		t.Error("line still resident after invalidate")
	}
}

// TestCacheHitRateProperty: for any access sequence, hits+misses == accesses
// and re-accessing the same address immediately always hits.
func TestCacheHitRateProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCache(CacheConfig{Name: "q", SizeBytes: 256, LineBytes: 16, Assoc: 2, HitLatency: 1})
		for i := 0; i < 500; i++ {
			addr := uint32(r.Intn(4096)) &^ 3
			write := r.Intn(2) == 0
			hit, _ := c.Access(addr, write)
			if !hit {
				c.Refill(addr, write)
			}
			if hit2, _ := c.Access(addr, false); !hit2 {
				t.Logf("immediate re-access of %#x missed", addr)
				return false
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func buildController(t *testing.T, cacheable bool) (*Controller, *Memory, *Memory) {
	t.Helper()
	ctl := NewController("ctl0", 0)
	priv := NewMemory("priv", 64*1024, 2)
	shared := NewMemory("shared", 64*1024, 10)
	if err := ctl.AddRange(Range{Name: "priv", Base: 0, Target: priv, Cacheable: cacheable, Kind: KindPrivate}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddRange(Range{Name: "shared", Base: 0x1000_0000, Target: shared, Kind: KindShared}); err != nil {
		t.Fatal(err)
	}
	return ctl, priv, shared
}

func TestControllerRouting(t *testing.T) {
	ctl, priv, shared := buildController(t, false)
	if _, err := ctl.WriteWord(0, 0x100, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.WriteWord(0, 0x1000_0000, 77); err != nil {
		t.Fatal(err)
	}
	if got := priv.LoadWord(0x100); got != 42 {
		t.Errorf("private mem = %d", got)
	}
	if got := shared.LoadWord(0); got != 77 {
		t.Errorf("shared mem = %d", got)
	}
	v, _, err := ctl.ReadWord(0, 0x1000_0000)
	if err != nil || v != 77 {
		t.Errorf("ReadWord shared = %d, %v", v, err)
	}
	st := ctl.Stats()
	if st.PrivateWrits != 1 || st.SharedWrits != 1 || st.SharedReads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestControllerFaults(t *testing.T) {
	ctl, _, _ := buildController(t, false)
	if _, _, err := ctl.ReadWord(0, 0x5000_0000); err == nil {
		t.Error("unmapped load did not fault")
	}
	if _, _, err := ctl.ReadWord(0, 2); err == nil {
		t.Error("unaligned load did not fault")
	}
	if _, err := ctl.WriteWord(0, 0x5000_0000, 1); err == nil {
		t.Error("unmapped store did not fault")
	}
	if _, _, err := ctl.Fetch(0, 0x5000_0000); err == nil {
		t.Error("unmapped fetch did not fault")
	}
	if _, _, err := ctl.Swap(0, 3, 1); err == nil {
		t.Error("unaligned swap did not fault")
	}
	// Fault errors carry context.
	_, _, err := ctl.ReadWord(0, 0x5000_0000)
	if fe, ok := err.(*FaultError); !ok || fe.Addr != 0x5000_0000 {
		t.Errorf("fault error = %#v", err)
	}
}

func TestControllerOverlapRejected(t *testing.T) {
	ctl := NewController("c", 0)
	m := NewMemory("a", 4096, 1)
	if err := ctl.AddRange(Range{Name: "a", Base: 0, Target: m, Kind: KindPrivate}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddRange(Range{Name: "b", Base: 2048, Target: NewMemory("b", 4096, 1), Kind: KindPrivate}); err == nil {
		t.Error("overlapping range accepted")
	}
}

func TestControllerCachedTiming(t *testing.T) {
	ctl, _, _ := buildController(t, true)
	dc := NewCache(CacheConfig{Name: "d", SizeBytes: 1024, LineBytes: 16, Assoc: 1, HitLatency: 1})
	ctl.AttachCaches(nil, dc)
	// Cold miss: hit latency + refill burst (mem latency 2 + 3 extra words).
	_, stall1, err := ctl.ReadWord(0, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if stall1 != 1+2+3 {
		t.Errorf("miss stall = %d, want 6", stall1)
	}
	// Hit: hit latency only.
	_, stall2, _ := ctl.ReadWord(1, 0x104)
	if stall2 != 1 {
		t.Errorf("hit stall = %d, want 1", stall2)
	}
	if dc.Stats().Misses != 1 || dc.Stats().Hits != 1 {
		t.Errorf("cache stats = %+v", dc.Stats())
	}
	// Uncacheable shared access bypasses cache.
	_, stall3, _ := ctl.ReadWord(2, 0x1000_0000)
	if stall3 != 10 {
		t.Errorf("uncached shared stall = %d, want 10", stall3)
	}
	if dc.Stats().Accesses() != 2 {
		t.Errorf("cache saw uncacheable access")
	}
}

func TestControllerDirtyEvictionTiming(t *testing.T) {
	ctl, priv, _ := buildController(t, true)
	dc := NewCache(CacheConfig{Name: "d", SizeBytes: 32, LineBytes: 16, Assoc: 1, HitLatency: 1})
	ctl.AttachCaches(nil, dc)
	if _, err := ctl.WriteWord(0, 0, 5); err != nil { // miss, dirty
		t.Fatal(err)
	}
	// Conflicting address 64 evicts dirty line 0: stall must include both
	// the write-back burst and the refill burst.
	_, stall, err := ctl.ReadWord(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	wantWB := priv.Latency(0, 0, 16, true)
	wantRF := priv.Latency(0, 64, 16, false)
	if stall != 1+wantWB+wantRF {
		t.Errorf("dirty eviction stall = %d, want %d", stall, 1+wantWB+wantRF)
	}
	// Functional data survives through it all.
	v, _, _ := ctl.ReadWord(2, 0)
	if v != 5 {
		t.Errorf("data lost across eviction: %d", v)
	}
}

func TestControllerSwapAtomicsAndInvalidation(t *testing.T) {
	ctl, _, _ := buildController(t, true)
	dc := NewCache(CacheConfig{Name: "d", SizeBytes: 1024, LineBytes: 16, Assoc: 1, HitLatency: 1})
	ctl.AttachCaches(nil, dc)
	if _, err := ctl.WriteWord(0, 0x200, 1); err != nil {
		t.Fatal(err)
	}
	old, _, err := ctl.Swap(1, 0x200, 9)
	if err != nil || old != 1 {
		t.Fatalf("swap = %d, %v", old, err)
	}
	if dc.Contains(0x200) {
		t.Error("swap left line cached")
	}
	v, _, _ := ctl.ReadWord(2, 0x200)
	if v != 9 {
		t.Errorf("after swap = %d", v)
	}
}

// Property: the cached hierarchy is functionally identical to a flat memory
// under random word traffic.
func TestControllerFunctionalEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ctl, _, _ := buildController(t, true)
		ctl.AttachCaches(nil, NewCache(CacheConfig{Name: "d", SizeBytes: 128, LineBytes: 16, Assoc: 2, HitLatency: 1}))
		ref := make(map[uint32]uint32)
		now := uint64(0)
		for i := 0; i < 400; i++ {
			region := uint32(0)
			if r.Intn(2) == 1 {
				region = 0x1000_0000
			}
			addr := region + uint32(r.Intn(1024))&^3
			if r.Intn(2) == 0 {
				v := r.Uint32()
				stall, err := ctl.WriteWord(now, addr, v)
				if err != nil {
					return false
				}
				ref[addr] = v
				now += stall + 1
			} else {
				v, stall, err := ctl.ReadWord(now, addr)
				if err != nil || v != ref[addr] {
					t.Logf("read %#x = %d, want %d", addr, v, ref[addr])
					return false
				}
				now += stall + 1
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierProtocol(t *testing.T) {
	b := NewBarrier("bar", 3, 1)
	g := b.LoadWord(0)
	b.StoreWord(0, 0) // core 0 arrives
	b.StoreWord(0, 0) // core 1 arrives
	if b.LoadWord(0) != g {
		t.Fatal("barrier released early")
	}
	b.StoreWord(0, 0) // core 2 arrives
	if b.LoadWord(0) != g+1 {
		t.Fatal("barrier did not release")
	}
	// Reusable across phases.
	for phase := 0; phase < 5; phase++ {
		g := b.LoadWord(0)
		for i := 0; i < 3; i++ {
			b.StoreWord(0, 0)
		}
		if b.LoadWord(0) != g+1 {
			t.Fatalf("phase %d did not complete", phase)
		}
	}
}

func TestRegDevice(t *testing.T) {
	stored := map[uint32]uint32{}
	d := NewRegDevice("regs", 8, 2,
		func(reg uint32) uint32 { return stored[reg] },
		func(reg uint32, v uint32) { stored[reg] = v })
	d.StoreWord(8, 0xAABBCCDD) // register 2
	if got := d.LoadWord(8); got != 0xAABBCCDD {
		t.Errorf("reg load = %#x", got)
	}
	if got := d.LoadByte(9); got != 0xCC {
		t.Errorf("reg byte load = %#x", got)
	}
	if d.Size() != 32 {
		t.Errorf("size = %d", d.Size())
	}
	if d.Latency(0, 0, 4, false) != 2 {
		t.Error("latency")
	}
}

func TestRoutedTargetTiming(t *testing.T) {
	under := NewMemory("shared", 4096, 10)
	ic := fakeIC{per: 7}
	r := &Routed{Under: under, IC: ic, Initiator: 3}
	if got := r.Latency(0, 0, 4, false); got != 17 {
		t.Errorf("routed latency = %d, want 17", got)
	}
	r.StoreWord(8, 123)
	if got := r.LoadWord(8); got != 123 {
		t.Errorf("routed data plane = %d", got)
	}
	if r.Size() != 4096 {
		t.Error("size passthrough")
	}
}

type fakeIC struct{ per uint64 }

func (f fakeIC) Transaction(initiator int, now uint64, bytes uint32, write bool, targetLatency uint64) uint64 {
	return f.per + targetLatency
}
func (f fakeIC) Name() string { return "fake" }

// loadState is everything a data load can change in a controller, its data
// cache and the backing memories, deep-copied so states compare with
// reflect.DeepEqual. The range memo (Controller.last) is left out: it only
// speeds up address resolution.
type loadState struct {
	Ctrl         CtrlStats
	Cache        CacheStats
	Lines        []cacheLine
	Stamp, Epoch uint64
	Priv, Shared MemStats
}

func snapLoad(c *Controller, priv, shared *Memory) loadState {
	d := c.dcache
	return loadState{Ctrl: c.stats, Cache: d.stats,
		Lines: append([]cacheLine(nil), d.lines...), Stamp: d.stamp, Epoch: d.epoch,
		Priv: priv.Stats(), Shared: shared.Stats()}
}

// TestReadWordHitMatchesReadWord pins the block-dispatch load: a hit in
// either way of a set, private or shared, leaves controller, cache and
// memory state identical to ReadWord's, and every load it refuses — a
// miss, an unaligned or unmapped address, an uncacheable range, a shared
// range when only private ones may complete — changes nothing.
func TestReadWordHitMatchesReadWord(t *testing.T) {
	build := func() (*Controller, *Memory, *Memory) {
		ctl := NewController("ctl0", 0)
		priv := NewMemory("priv", 64*1024, 2)
		shared := NewMemory("shared", 64*1024, 10)
		raw := NewMemory("raw", 4096, 1)
		for _, r := range []Range{
			{Name: "priv", Base: 0, Target: priv, Cacheable: true, Kind: KindPrivate},
			{Name: "shared", Base: 0x1000_0000, Target: shared, Cacheable: true, Kind: KindShared},
			{Name: "raw", Base: 0x2000_0000, Target: raw, Kind: KindPrivate},
		} {
			if err := ctl.AddRange(r); err != nil {
				t.Fatal(err)
			}
		}
		ctl.AttachCaches(nil, NewCache(CacheConfig{Name: "d", SizeBytes: 512, LineBytes: 16, Assoc: 2, HitLatency: 1}))
		for a := uint32(0); a < 0x400; a += 4 {
			priv.StoreWord(a, a*7+1)
		}
		shared.StoreWord(0x40, 99)
		return ctl, priv, shared
	}
	hit, hp, hs := build() // loads through ReadWordHit
	ref, rp, rs := build() // the same loads through ReadWord
	cyc := uint64(0)
	for _, addr := range []uint32{0x354, 0x1000_0040, 0x100, 0x200} {
		for _, c := range []*Controller{hit, ref} {
			if _, _, err := c.ReadWord(cyc, addr); err != nil {
				t.Fatal(err)
			}
		}
		cyc++
	}
	d := hit.dcache
	for _, tc := range []struct {
		name        string
		addr        uint32
		privateOnly bool
	}{
		{"way-1", 0x204, true},     // 0x200's line, the second refill into set 0
		{"way-0", 0x108, true},     // 0x100's line, the first refill into set 0
		{"other-set", 0x358, true}, // 0x354's line, alone in set 5
		{"shared", 0x1000_0040, false},
	} {
		if d.resident(tc.addr) < 0 {
			t.Fatalf("%s: %#x is not resident", tc.name, tc.addr)
		}
		v, stall, ok := hit.ReadWordHit(tc.addr, tc.privateOnly)
		rv, rstall, err := ref.ReadWord(cyc, tc.addr)
		cyc++
		if err != nil || !ok || v != rv || stall != rstall {
			t.Fatalf("%s: ReadWordHit = %d, %d, %v; ReadWord = %d, %d, %v", tc.name, v, stall, ok, rv, rstall, err)
		}
		if got, want := snapLoad(hit, hp, hs), snapLoad(ref, rp, rs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: state diverges from ReadWord:\n hit  %+v\n read %+v", tc.name, got, want)
		}
	}

	refuse := func(name string, addr uint32, privateOnly bool) {
		t.Helper()
		before := snapLoad(hit, hp, hs)
		if _, _, ok := hit.ReadWordHit(addr, privateOnly); ok {
			t.Errorf("%s: ReadWordHit completed the load", name)
		}
		if after := snapLoad(hit, hp, hs); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: refused load changed state:\n before %+v\n after  %+v", name, before, after)
		}
	}
	refuse("miss", 0x800, false)
	refuse("unaligned", 0x102, false)
	refuse("unmapped", 0x5000_0000, false)
	refuse("uncacheable", 0x2000_0000, false)
	refuse("shared, private only", 0x1000_0040, true)
}
