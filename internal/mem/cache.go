package mem

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes one private HW-controlled cache. Per the paper,
// total size, line size and latency are independently configurable for each
// cache, and both direct-mapped (Assoc == 1) and set-associative
// organisations are supported.
type CacheConfig struct {
	Name       string
	SizeBytes  uint32
	LineBytes  uint32
	Assoc      int
	HitLatency uint64
}

// Validate checks the configuration for structural consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes == 0 || c.LineBytes == 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: size, line size and associativity must be positive", c.Name)
	}
	if c.LineBytes%4 != 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d must be a power of two multiple of 4", c.Name, c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*uint32(c.Assoc)) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * uint32(c.Assoc))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// CacheStats counts cache events for the sniffers.
type CacheStats struct {
	Reads      uint64
	Writes     uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Accesses returns the total number of cache accesses.
func (s CacheStats) Accesses() uint64 { return s.Reads + s.Writes }

// MissRate returns misses over accesses (0 when idle).
func (s CacheStats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

type cacheLine struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64 // last-touched stamp
}

// Cache is a timing directory modelling a write-back, write-allocate cache
// with per-set LRU replacement. It never holds data: the backing store is
// always consistent, so the cache only determines how many cycles an access
// costs and which refills/write-backs reach the next level.
type Cache struct {
	cfg CacheConfig
	// lines holds every way of every set, set-major: set s occupies
	// lines[s*assoc : s*assoc+assoc].
	lines []cacheLine
	assoc uint32
	nSets uint32
	// lineShift/setShift/setMask precompute the power-of-two index
	// arithmetic (Validate guarantees both line size and set count are
	// powers of two), keeping runtime divisions off the per-access path.
	lineShift uint32
	setShift  uint32
	setMask   uint32
	stamp     uint64
	stats     CacheStats
	// epoch counts directory shape changes (refill, invalidate, restore):
	// any event that can change which lines are resident. Batched-fetch
	// plans record the epoch they were validated at and revalidate only
	// when it moves, so a hot block's residency check is one compare. Pure
	// hits move only LRU state and leave it unchanged.
	epoch uint64
}

// NewCache builds a cache from cfg. It panics on invalid configurations;
// call cfg.Validate first if the source is untrusted.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic("mem: " + err.Error())
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * uint32(cfg.Assoc))
	return &Cache{cfg: cfg, lines: make([]cacheLine, nSets*uint32(cfg.Assoc)),
		assoc: uint32(cfg.Assoc), nSets: nSets,
		lineShift: uint32(bits.TrailingZeros32(cfg.LineBytes)),
		setShift:  uint32(bits.TrailingZeros32(nSets)),
		setMask:   nSets - 1}
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns the event counters.
func (c *Cache) Stats() CacheStats { return c.stats }

func (c *Cache) index(addr uint32) (set, tag uint32) {
	line := addr >> c.lineShift
	return line & c.setMask, line >> c.setShift
}

// set returns the ways of one set.
func (c *Cache) set(set uint32) []cacheLine {
	base := set * c.assoc
	return c.lines[base : base+c.assoc]
}

func (c *Cache) lineAddr(tag, set uint32) uint32 {
	return (tag<<c.setShift | set) << c.lineShift
}

// Access models one cache lookup at the given (global) address. On a hit it
// returns (true, hit latency); on a miss it returns (false, 0) and the
// caller is expected to call Refill and charge the refill/write-back timing
// against the appropriate targets. The functional data transfer is performed
// by the caller against the backing store; Access only accounts timing and
// directory state.
func (c *Cache) Access(addr uint32, write bool) (hit bool, stall uint64) {
	mi := c.resident(addr)
	if mi < 0 {
		c.stamp++
		if write {
			c.stats.Writes++
		} else {
			c.stats.Reads++
		}
		c.stats.Misses++
		return false, 0
	}
	c.touch(mi, write)
	return true, c.cfg.HitLatency
}

// touch charges a hit on line mi: the next LRU stamp, the read or write
// and hit counters and, for a write, the line's dirty bit.
func (c *Cache) touch(mi int32, write bool) {
	c.stamp++
	ln := &c.lines[mi]
	ln.lru = c.stamp
	c.stats.Hits++
	if write {
		c.stats.Writes++
		ln.dirty = true
	} else {
		c.stats.Reads++
	}
}

// Refill installs the line containing addr, evicting the LRU way. It
// returns the victim's write-back requirement.
func (c *Cache) Refill(addr uint32, write bool) (victimAddr uint32, victimDirty bool) {
	set, tag := c.index(addr)
	lines := c.set(set)
	vi := 0
	for i := range lines {
		if !lines[i].valid {
			vi = i
			break
		}
		if lines[i].lru < lines[vi].lru {
			vi = i
		}
	}
	v := &lines[vi]
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			victimAddr, victimDirty = c.lineAddr(v.tag, set), true
		}
	}
	c.stamp++
	*v = cacheLine{tag: tag, valid: true, dirty: write, lru: c.stamp}
	c.epoch++
	return victimAddr, victimDirty
}

// resident returns the flat-array index of the valid line holding addr, or
// -1, without touching statistics or LRU state: the one lookup of every
// hit, and the pure directory probe of batched fetch planning.
func (c *Cache) resident(addr uint32) int32 {
	line := addr >> c.lineShift
	set, tag := line&c.setMask, line>>c.setShift
	base := set * c.assoc
	lines := c.lines[base : base+c.assoc]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			return int32(base + uint32(i))
		}
	}
	return -1
}

// Contains reports whether the line holding addr is currently resident
// (used by tests and by atomic-swap invalidation).
func (c *Cache) Contains(addr uint32) bool { return c.resident(addr) >= 0 }

// Invalidate drops the line containing addr if resident, without write-back
// (used by atomic operations that bypass the cache).
func (c *Cache) Invalidate(addr uint32) {
	c.epoch++
	if i := c.resident(addr); i >= 0 {
		c.lines[i] = cacheLine{}
	}
}
