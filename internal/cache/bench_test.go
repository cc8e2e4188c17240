package cache

import (
	"testing"

	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// neighbourCtrl is an allocation-free stub controller: every read returns
// its 128 B-pair neighbour as a free prefetch, as a compressing controller
// does for a line decompressed alongside its pair.
type neighbourCtrl struct {
	stats    *sim.Stats
	line     [hybrid.CachelineSize]byte
	prefetch [1]hybrid.PrefetchedLine
}

func (s *neighbourCtrl) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	if write {
		return hybrid.Result{Done: now}
	}
	s.prefetch[0] = hybrid.PrefetchedLine{Addr: addr ^ hybrid.CachelineSize, Data: s.line[:]}
	return hybrid.Result{Done: now + 100, ServedByFast: true, Data: s.line[:], Prefetched: s.prefetch[:]}
}
func (s *neighbourCtrl) Stats() *sim.Stats { return s.stats }
func (s *neighbourCtrl) Name() string      { return "neighbour" }

// BenchmarkHierarchyAccess measures one Hierarchy.Access with the scaled
// Table I hierarchy (16 cores, 64 kB LLC) in front of a stub controller.
// Each core streams loads and stores over its own 256 kB region plus a
// shared one, four times the LLC, so the LLC evicts on most misses and
// back-invalidation runs constantly.
func BenchmarkHierarchyAccess(b *testing.B) {
	const (
		cores = 16
		llcKB = 64
		lines = 4 * llcKB * 1024 / hybrid.CachelineSize // per region
	)
	stats := sim.NewStats()
	h := NewHierarchy(DefaultHierarchy(cores, llcKB), &neighbourCtrl{stats: stats}, stats)
	line := make([]byte, hybrid.CachelineSize)
	h.LineData = func(uint64) []byte { return line }

	x := uint64(0x9e3779b97f4a7c15)
	access := func(i int) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		core := int(x % cores)
		region := uint64(core + 1)
		if x>>8%4 == 0 {
			region = 0 // shared by all cores
		}
		addr := (region*lines + x>>16%lines) * hybrid.CachelineSize
		h.Access(core, uint64(i)*10, addr, x>>12%4 == 0)
	}
	for i := 0; i < cores*lines; i++ {
		access(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(i)
	}
}
