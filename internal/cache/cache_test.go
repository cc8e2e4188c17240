package cache

import (
	"testing"

	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

func newTestCache(sets, ways int) (*Cache, *sim.Stats) {
	stats := sim.NewStats()
	return New(Config{Name: "t", Sets: sets, Ways: ways, Latency: 1}, stats), stats
}

func TestCacheHitMiss(t *testing.T) {
	c, stats := newTestCache(4, 2)
	if c.Access(0, false) {
		t.Fatal("cold hit")
	}
	c.Install(0, false)
	if !c.Access(0, false) {
		t.Fatal("installed line missed")
	}
	if stats.Get("t.hits") != 1 || stats.Get("t.misses") != 1 {
		t.Fatalf("hits=%d misses=%d", stats.Get("t.hits"), stats.Get("t.misses"))
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := newTestCache(1, 2)
	c.Install(0*64, false)
	c.Install(1*64, false)
	c.Access(0, false) // make line 0 MRU
	v := c.Install(2*64, false)
	if !v.Valid || v.Addr != 1*64 {
		t.Fatalf("evicted %+v, want line 1 (LRU)", v)
	}
	if !c.Probe(0) || c.Probe(64) || !c.Probe(128) {
		t.Fatal("wrong lines resident")
	}
}

func TestCacheDirtyTracking(t *testing.T) {
	c, _ := newTestCache(1, 1)
	c.Install(0, false)
	c.Access(0, true) // write marks dirty
	v := c.Install(64, false)
	if !v.Valid || !v.Dirty {
		t.Fatalf("dirty victim lost: %+v", v)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c, _ := newTestCache(2, 2)
	c.Install(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Fatal("invalidate lost state")
	}
	if present, _ := c.Invalidate(0); present {
		t.Fatal("double invalidate")
	}
}

func TestDirtyLines(t *testing.T) {
	c, _ := newTestCache(4, 2)
	c.Install(0, true)
	c.Install(64, false)
	c.Install(128, true)
	d := c.DirtyLines()
	if len(d) != 2 {
		t.Fatalf("dirty lines %v", d)
	}
}

// controller stub records accesses for hierarchy tests.
type stubCtrl struct {
	stats  *sim.Stats
	reads  []uint64
	writes []uint64
}

func (s *stubCtrl) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	if write {
		s.writes = append(s.writes, addr)
		return hybrid.Result{Done: now}
	}
	s.reads = append(s.reads, addr)
	return hybrid.Result{
		Done: now + 100, ServedByFast: true, Data: make([]byte, 64),
		Prefetched: []hybrid.PrefetchedLine{{Addr: addr ^ 64, Data: make([]byte, 64)}},
	}
}
func (s *stubCtrl) Stats() *sim.Stats { return s.stats }
func (s *stubCtrl) Name() string      { return "stub" }

func newTestHierarchy(t *testing.T) (*Hierarchy, *stubCtrl, *sim.Stats) {
	t.Helper()
	stats := sim.NewStats()
	ctrl := &stubCtrl{stats: stats}
	cfg := HierarchyConfig{
		Cores:             2,
		L1:                Config{Name: "L1", Sets: 2, Ways: 2, Latency: 1},
		L2:                Config{Name: "L2", Sets: 4, Ways: 2, Latency: 4},
		LLC:               Config{Name: "LLC", Sets: 8, Ways: 2, Latency: 10},
		InstallPrefetched: true,
	}
	h := NewHierarchy(cfg, ctrl, stats)
	h.LineData = func(addr uint64) []byte { return make([]byte, 64) }
	return h, ctrl, stats
}

func TestHierarchyMissGoesToController(t *testing.T) {
	h, ctrl, stats := newTestHierarchy(t)
	done := h.Access(0, 0, 0x1000, false)
	if len(ctrl.reads) != 1 {
		t.Fatalf("controller saw %d reads", len(ctrl.reads))
	}
	if done < 100 {
		t.Fatalf("latency %d too small", done)
	}
	if stats.Get("hierarchy.llcMisses") != 1 {
		t.Fatal("llc miss not counted")
	}
	// Second access: L1 hit, no controller traffic.
	h.Access(0, 200, 0x1000, false)
	if len(ctrl.reads) != 1 {
		t.Fatal("hit went to controller")
	}
}

func TestHierarchyPrefetchInstall(t *testing.T) {
	h, ctrl, stats := newTestHierarchy(t)
	h.Access(0, 0, 0x1000, false)
	// The stub prefetches addr^64; accessing it must hit the LLC, not the
	// controller.
	h.Access(1, 100, 0x1000^64, false)
	if len(ctrl.reads) != 1 {
		t.Fatalf("prefetched line missed LLC: reads=%v", ctrl.reads)
	}
	if stats.Get("hierarchy.prefetchInstalls") != 1 {
		t.Fatal("prefetch install not counted")
	}
}

func TestHierarchyWritebackOnFlush(t *testing.T) {
	h, ctrl, _ := newTestHierarchy(t)
	h.Access(0, 0, 0x2000, true)
	if len(ctrl.writes) != 0 {
		t.Fatal("write reached controller before eviction")
	}
	h.Flush(1000)
	if len(ctrl.writes) != 1 || ctrl.writes[0] != 0x2000 {
		t.Fatalf("flush writebacks: %v", ctrl.writes)
	}
}

// TestHierarchyFlushOrder pins that Flush writes dirty lines back in
// ascending address order, each once, whatever order they were dirtied in.
func TestHierarchyFlushOrder(t *testing.T) {
	h, ctrl, _ := newTestHierarchy(t)
	// 16 consecutive lines fill the 8-set, 2-way LLC exactly, so nothing is
	// written back before the flush; write them from the top down on
	// alternating cores.
	const lines = 16
	for i := lines - 1; i >= 0; i-- {
		h.Access(i%2, uint64(100*(lines-i)), uint64(i*64), true)
	}
	if len(ctrl.writes) != 0 {
		t.Fatalf("writebacks before flush: %v", ctrl.writes)
	}
	h.Flush(10000)
	if len(ctrl.writes) != lines {
		t.Fatalf("flush wrote back %d lines, want %d: %v", len(ctrl.writes), lines, ctrl.writes)
	}
	for i := 1; i < len(ctrl.writes); i++ {
		if ctrl.writes[i] <= ctrl.writes[i-1] {
			t.Fatalf("flush writebacks not strictly ascending: %v", ctrl.writes)
		}
	}
}

func TestHierarchyDirtyEviction(t *testing.T) {
	h, ctrl, _ := newTestHierarchy(t)
	// Write one line, then stream enough lines through the same LLC set to
	// force its eviction; the dirty data must reach the controller.
	h.Access(0, 0, 0x0, true)
	for i := 1; i <= 4; i++ {
		// LLC has 8 sets: stride 8*64 stays in set 0.
		h.Access(0, uint64(i*100), uint64(i*8*64), false)
	}
	if len(ctrl.writes) == 0 {
		t.Fatal("dirty line never written back")
	}
}

func TestHierarchyServeCounters(t *testing.T) {
	h, _, stats := newTestHierarchy(t)
	h.Access(0, 0, 0x3000, false)
	if stats.Get("hierarchy.servedFast") != 1 {
		t.Fatal("servedFast not counted")
	}
}

func TestDefaultHierarchyShape(t *testing.T) {
	cfg := DefaultHierarchy(16, 64)
	if cfg.Cores != 16 {
		t.Fatal("cores wrong")
	}
	llcLines := cfg.LLC.Sets * cfg.LLC.Ways
	if llcLines*hybrid.CachelineSize != 64*1024 {
		t.Fatalf("LLC capacity %d B, want 64 kB", llcLines*hybrid.CachelineSize)
	}
}
