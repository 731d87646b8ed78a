package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// dataRig is one side of FuzzDataPath: a controller over every kind of
// range a data access can meet, two data caches to swap between, and
// the log of what its code-write hook saw.
type dataRig struct {
	ctl    *Controller
	mems   []*Memory // priv, shared (behind an interconnect), uncached, odd-sized, raw
	dev    [16]uint32
	caches [2]*Cache
	code   []uint32 // addr<<3 | bytes of every store the code-write hook saw
	// Save slots for the state ops.
	cacheSlot CacheState
	memSlots  []MemoryState
	statsSlot CtrlStats
}

// The global bases of the rig's ranges.
const (
	rigPriv     = 0x0000_0000
	rigShared   = 0x1000_0000
	rigUncached = 0x1800_0000
	rigDev      = 0x2000_0000
	rigRaw      = 0x2100_0000
	rigOdd      = 0x3000_0000
	rigUnmapped = 0x5000_0000
)

func newDataRig(t testing.TB, hitLatency uint64) *dataRig {
	g := &dataRig{ctl: NewController("ctl0", 0)}
	priv := NewMemory("priv", 8*1024, 2)
	shared := NewMemory("shared", 4*1024, 3)
	uncached := NewMemory("uncached", 4*1024, 5)
	odd := NewMemory("odd", 1026, 1) // its last word runs past the end
	raw := NewMemory("raw", 4*1024, 1)
	g.mems = []*Memory{priv, shared, uncached, odd, raw}
	g.memSlots = make([]MemoryState, len(g.mems))
	dev := NewRegDevice("dev", 16, 1,
		func(reg uint32) uint32 { return g.dev[reg] },
		func(reg, v uint32) { g.dev[reg] = v })
	for _, r := range []Range{
		{Name: "priv", Base: rigPriv, Target: priv, Cacheable: true, Kind: KindPrivate},
		{Name: "shared", Base: rigShared, Target: &Routed{Under: shared, IC: fakeIC{per: 4}}, Cacheable: true, Kind: KindShared},
		{Name: "uncached", Base: rigUncached, Target: uncached, Kind: KindShared},
		{Name: "dev", Base: rigDev, Target: dev, Cacheable: true, Kind: KindDevice},
		{Name: "raw", Base: rigRaw, Target: raw, Kind: KindPrivate},
		{Name: "odd", Base: rigOdd, Target: odd, Cacheable: true, Kind: KindPrivate},
	} {
		if err := g.ctl.AddRange(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := range g.caches {
		g.caches[i] = NewCache(CacheConfig{Name: "d", SizeBytes: 256, LineBytes: 16, Assoc: 2, HitLatency: hitLatency})
	}
	g.ctl.AttachCaches(nil, g.caches[0])
	g.ctl.SetCodeWriteHook(func(addr, bytes uint32) { g.code = append(g.code, addr<<3|bytes) })
	return g
}

// servable reports whether ReadWordHit must complete the load at addr: an
// aligned load that hits the data cache in a cacheable range
// backed by a Memory (directly or behind an interconnect), private if
// privateOnly is set.
func (g *dataRig) servable(addr uint32, privateOnly bool) bool {
	c := g.ctl
	if addr%4 != 0 || c.dcache == nil {
		return false
	}
	r := c.rangeFor(addr)
	if r == nil || !r.Cacheable || r.Kind == KindDevice || privateOnly && r.Kind != KindPrivate {
		return false
	}
	t := r.Target
	if rt, ok := t.(*Routed); ok {
		t = rt.Under
	}
	if _, ok := t.(*Memory); !ok {
		return false
	}
	return c.dcache.resident(addr) >= 0
}

// rigState is everything an op can change on one side, deep-copied so two
// sides compare with reflect.DeepEqual, except the code-write log: an op
// appends at most one entry to it, so the latest entry stands for it. The
// range memo and the hit window are left out: they only speed up the
// accesses.
type rigState struct {
	Ctrl     CtrlStats
	Caches   [2]cacheView
	Mems     []MemStats
	Dev      [16]uint32
	Code     int
	LastCode uint32
}

type cacheView struct {
	Stats        CacheStats
	Lines        []cacheLine
	Stamp, Epoch uint64
	Attached     bool
}

func (g *dataRig) state() rigState {
	s := rigState{Ctrl: g.ctl.stats, Dev: g.dev, Code: len(g.code)}
	if len(g.code) > 0 {
		s.LastCode = g.code[len(g.code)-1]
	}
	for i, d := range g.caches {
		s.Caches[i] = cacheView{Stats: d.stats, Lines: append([]cacheLine(nil), d.lines...),
			Stamp: d.stamp, Epoch: d.epoch, Attached: g.ctl.dcache == d}
	}
	for _, m := range g.mems {
		s.Mems = append(s.Mems, m.Stats())
	}
	return s
}

// dataOpAddr decodes an op's address from its range selector and its two
// operand bytes: lo is the word offset, bit 0 of hi adds 1 KiB, and hi's
// bits 1-3 all set misalign it by hi's bits 4-5.
func dataOpAddr(sel, lo, hi byte) uint32 {
	off := uint32(hi&1)<<10 | uint32(lo)<<2
	if hi&0xe == 0xe {
		off |= uint32(hi>>4) & 3 // misaligned
	}
	return [...]uint32{rigPriv, rigShared, rigUncached, rigDev, rigRaw, rigOdd, rigUnmapped}[int(sel)%7] + off
}

// opResult is what one side of an op returned.
type opResult struct {
	V     uint32
	Stall uint64
	OK    bool
	Err   string
}

func result(v uint32, stall uint64, err error) opResult {
	if err != nil {
		return opResult{V: v, Stall: stall, Err: err.Error()}
	}
	return opResult{V: v, Stall: stall, OK: true}
}

// runDataOp applies one op to the fast side g and the reference side ref,
// the reference taking the general path for every word access. It returns
// a description of the op and what each side returned.
func runDataOp(g, ref *dataRig, op, sel, lo, hi byte, now uint64) (desc string, got, want opResult) {
	addr := dataOpAddr(sel, lo, hi)
	both := func(fn func(s *dataRig)) { fn(g); fn(ref) }
	switch op % 11 {
	case 0, 1:
		privateOnly := op%11 == 1
		if ref.servable(addr, privateOnly) {
			want = result(ref.ctl.refReadWord(now, addr))
		}
		got.V, got.Stall, got.OK = g.ctl.ReadWordHit(addr, privateOnly)
		return fmt.Sprintf("ReadWordHit(%#x, %v)", addr, privateOnly), got, want
	case 2:
		return fmt.Sprintf("ReadWord(%#x)", addr), result(g.ctl.ReadWord(now, addr)), result(ref.ctl.refReadWord(now, addr))
	case 3:
		v := uint32(hi)<<24 | uint32(lo)<<8 | uint32(now)
		stall, err := g.ctl.WriteWord(now, addr, v)
		rstall, rerr := ref.ctl.refWriteWord(now, addr, v)
		return fmt.Sprintf("WriteWord(%#x, %#x)", addr, v), result(0, stall, err), result(0, rstall, rerr)
	case 4:
		b, stall, err := g.ctl.LoadByte(now, addr)
		rb, rstall, rerr := ref.ctl.LoadByte(now, addr)
		return fmt.Sprintf("LoadByte(%#x)", addr), result(uint32(b), stall, err), result(uint32(rb), rstall, rerr)
	case 5:
		stall, err := g.ctl.StoreByte(now, addr, lo)
		rstall, rerr := ref.ctl.StoreByte(now, addr, lo)
		return fmt.Sprintf("StoreByte(%#x, %#x)", addr, lo), result(0, stall, err), result(0, rstall, rerr)
	case 6:
		v := uint32(lo) * 0x01010101
		return fmt.Sprintf("Swap(%#x, %#x)", addr, v), result(g.ctl.Swap(now, addr, v)), result(ref.ctl.Swap(now, addr, v))
	case 7:
		k := int(lo) % 3
		both(func(s *dataRig) {
			if k < 2 {
				s.ctl.AttachCaches(nil, s.caches[k])
			} else {
				s.ctl.AttachCaches(nil, nil)
			}
		})
		return fmt.Sprintf("AttachCaches(%d)", k), got, want
	case 8:
		d := sel & 1
		if lo&1 == 0 {
			both(func(s *dataRig) { s.cacheSlot = s.caches[d].SaveState() })
			return fmt.Sprintf("caches[%d].SaveState", d), got, want
		}
		got.Err = fmt.Sprint(g.caches[d].RestoreState(g.cacheSlot))
		want.Err = fmt.Sprint(ref.caches[d].RestoreState(ref.cacheSlot))
		return fmt.Sprintf("caches[%d].RestoreState", d), got, want
	case 9:
		m := int(sel) % len(g.mems)
		if lo&1 == 0 {
			both(func(s *dataRig) { s.memSlots[m] = s.mems[m].SaveState() })
			return fmt.Sprintf("mems[%d].SaveState", m), got, want
		}
		got.Err = fmt.Sprint(g.mems[m].RestoreState(g.memSlots[m]))
		want.Err = fmt.Sprint(ref.mems[m].RestoreState(ref.memSlots[m]))
		return fmt.Sprintf("mems[%d].RestoreState", m), got, want
	default:
		if lo&1 == 0 {
			both(func(s *dataRig) { s.statsSlot = s.ctl.Stats() })
			return "SaveStats", got, want
		}
		both(func(s *dataRig) { s.ctl.RestoreStats(s.statsSlot) })
		return "RestoreStats", got, want
	}
}

// dataSeed encodes ops for the seed corpus: each op is {code, range,
// offset/4, flags}.
func dataSeed(hitLatency byte, ops ...[4]byte) []byte {
	b := []byte{hitLatency}
	for _, op := range ops {
		b = append(b, op[:]...)
	}
	return b
}

// FuzzDataPath holds the hit window, ReadWord, WriteWord and ReadWordHit
// to the general data path: a twin controller runs every word access
// through rangeFor, timedAccess and account, and after each op of a
// stream that also swaps caches and saved state underneath, both sides
// must agree on every result, every counter, every cache line and what
// the code-write hook saw. ReadWordHit
// must complete exactly the loads the twin's state says are servable
// hits, and change nothing when it refuses.
func FuzzDataPath(f *testing.F) {
	const (
		rwh  = 0    // ReadWordHit
		rwhP = 1    // ReadWordHit, private only
		rw   = 2    // ReadWord
		priv = 0    // range selectors, in dataOpAddr's order
		shrd = 1    // shared, behind an interconnect
		raw  = 4    // private, uncacheable
		unmp = 6    // unmapped
		mis  = 0x2e // flags byte: misaligned by 2
	)
	// TestReadWordHitMatchesReadWord's cases: warm a private and a shared
	// line, hit three private lines and the shared one, then refuse a
	// miss, an unaligned, unmapped or uncacheable load and a shared load
	// when only private ones may complete; then hit, store and reload one
	// word.
	for _, lat := range []byte{0, 1} {
		f.Add(dataSeed(lat,
			[4]byte{rw, priv, 0x354 >> 2}, [4]byte{rw, shrd, 0x40 >> 2}, [4]byte{rw, priv, 0x100 >> 2}, [4]byte{rw, priv, 0x200 >> 2},
			[4]byte{rwhP, priv, 0x204 >> 2}, [4]byte{rwhP, priv, 0x108 >> 2}, [4]byte{rwhP, priv, 0x358 >> 2},
			[4]byte{rwh, shrd, 0x40 >> 2}, [4]byte{rwhP, shrd, 0x40 >> 2},
			[4]byte{rwh, priv, 0x3f0 >> 2}, [4]byte{rwh, priv, 0x100 >> 2, mis}, [4]byte{rwh, unmp, 0},
			[4]byte{rwh, raw, 0}, [4]byte{rw, raw, 0},
			[4]byte{rwh, priv, 0x204 >> 2}, [4]byte{3, priv, 0x204 >> 2}, [4]byte{rw, priv, 0x204 >> 2}))
	}
	// Long random streams: every op, range and state change, mixed.
	for seed := int64(1); seed <= 2; seed++ {
		b := make([]byte, 1+4*1500)
		rand.New(rand.NewSource(seed)).Read(b)
		for i := 1; i < len(b); i += 4 {
			b[i+2] &= 0x3f // keep most offsets in the cache's reach
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		lat := uint64(in[0] & 1)
		g, ref := newDataRig(t, lat), newDataRig(t, lat)
		now := uint64(0)
		for i := 1; i+4 <= len(in); i += 4 {
			desc, got, want := runDataOp(g, ref, in[i], in[i+1], in[i+2], in[i+3], now)
			if got != want {
				t.Fatalf("op %d %s: returned %+v, reference %+v", (i-1)/4, desc, got, want)
			}
			if got, want := g.state(), ref.state(); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d %s: state diverges\n fast %+v\n ref  %+v", (i-1)/4, desc, got, want)
			}
			now += got.Stall + 1
		}
		for i := range g.mems {
			if !reflect.DeepEqual(g.mems[i].SaveState(), ref.mems[i].SaveState()) {
				t.Fatalf("memory %s: contents diverge", g.mems[i].Name())
			}
		}
	})
}
