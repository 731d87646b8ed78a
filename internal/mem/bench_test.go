package mem

import "testing"

// benchSink keeps the benchmarked loads live.
var benchSink uint32

// BenchmarkReadWordHit times the block-dispatch load on the inner-loop
// shape of a matrix multiply: a row walk of one matrix interleaved with a
// column walk of the other, every load a hit in a 2-way, 16-byte-line data
// cache (4 KiB, the default platform's shape). The matrices sit where the
// Matrix workload puts its 16x16 A and B: back to back in one page. It
// reports ns/load.
func BenchmarkReadWordHit(b *testing.B) {
	benchReadWordHit(b, 0x1000, 0x1000+4*16*16)
}

// BenchmarkReadWordHitSplitPage is BenchmarkReadWordHit with the two
// matrices a page apart, at 0x1000 and 0x2000, as the Matrix workload lays
// them out from n = 32: every load alternates between two pages.
func BenchmarkReadWordHitSplitPage(b *testing.B) {
	benchReadWordHit(b, 0x1000, 0x2000)
}

func benchReadWordHit(b *testing.B, rowBase, colBase uint32) {
	const n = 16 // words per matrix row
	ctl := NewController("ctl0", 0)
	m := NewMemory("priv", 64*1024, 1)
	if err := ctl.AddRange(Range{Name: "priv", Target: m, Cacheable: true, Kind: KindPrivate}); err != nil {
		b.Fatal(err)
	}
	ctl.AttachCaches(nil, NewCache(CacheConfig{Name: "dcache", SizeBytes: 4096, LineBytes: 16, Assoc: 2}))
	for k := uint32(0); k < n*n; k++ {
		m.StoreWord(rowBase+4*k, k)
		m.StoreWord(colBase+4*k, 3*k)
	}
	walk := func() (sum uint32, ok bool) {
		for i := uint32(0); i < n; i++ {
			for k := uint32(0); k < n; k++ {
				a, _, okA := ctl.ReadWordHit(rowBase+4*(i*n+k), true)
				c, _, okC := ctl.ReadWordHit(colBase+4*(k*n+i), true)
				if !okA || !okC {
					return 0, false
				}
				sum += a * c
			}
		}
		return sum, true
	}
	// Warm the cache: every line of both matrices is resident afterwards.
	for k := uint32(0); k < n*n; k++ {
		for _, base := range []uint32{rowBase, colBase} {
			if _, _, err := ctl.ReadWord(0, base+4*k); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, ok := walk()
		if !ok {
			b.Fatal("a load missed the warm cache")
		}
		benchSink += s
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n*n), "ns/load")
}
