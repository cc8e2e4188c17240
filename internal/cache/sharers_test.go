package cache

import (
	"math/rand/v2"
	"slices"
	"testing"

	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// memOp is one controller access as the hierarchy issued it.
type memOp struct {
	addr  uint64
	write bool
}

// setPrefetchCtrl is a stub controller that logs every access and answers
// each read with prefetched lines from the demand line's own LLC set, so a
// prefetch install can evict the demand line just installed there.
type setPrefetchCtrl struct {
	stats *sim.Stats
	ops   []memOp
	// stride is the byte distance between consecutive lines of one LLC set
	// (LLC sets × line size); span is the address range lines wrap within.
	stride, span uint64
	// prefetch returns how many same-set lines a read of addr prefetches.
	prefetch func(addr uint64) int
}

func (s *setPrefetchCtrl) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	s.ops = append(s.ops, memOp{addr, write})
	if write {
		return hybrid.Result{Done: now}
	}
	res := hybrid.Result{Done: now + 100, ServedByFast: true}
	for k := 1; k <= s.prefetch(addr); k++ {
		res.Prefetched = append(res.Prefetched, hybrid.PrefetchedLine{Addr: (addr + uint64(k)*s.stride) % s.span})
	}
	return res
}
func (s *setPrefetchCtrl) Stats() *sim.Stats { return s.stats }
func (s *setPrefetchCtrl) Name() string      { return "set-prefetch" }

// newSharerHierarchy builds a hierarchy with tiny private caches and a
// 4-set, 2-way LLC in front of a setPrefetchCtrl over span bytes.
func newSharerHierarchy(cores int, span uint64, prefetch func(uint64) int) (*Hierarchy, *setPrefetchCtrl) {
	stats := sim.NewStats()
	cfg := HierarchyConfig{
		Cores:             cores,
		L1:                Config{Name: "L1", Sets: 2, Ways: 2, Latency: 1},
		L2:                Config{Name: "L2", Sets: 2, Ways: 4, Latency: 4},
		LLC:               Config{Name: "LLC", Sets: 4, Ways: 2, Latency: 10},
		InstallPrefetched: true,
	}
	ctrl := &setPrefetchCtrl{stats: stats, stride: uint64(cfg.LLC.Sets) * hybrid.CachelineSize, span: span, prefetch: prefetch}
	h := NewHierarchy(cfg, ctrl, stats)
	h.LineData = func(uint64) []byte { return nil }
	return h, ctrl
}

// sharersOf returns the sharer mask of the LLC line at addr and whether the
// line is present.
func (c *Cache) sharersOf(addr uint64) (uint64, bool) {
	si, w := c.find(addr)
	if w < 0 {
		return 0, false
	}
	return c.sharers[si*c.cfg.Ways+w], true
}

// checkSharers verifies the superset invariant: every core holding a line
// in L1 or L2 has its bit set in the line's LLC sharer mask, or in orphans
// when the line is not in the LLC; and no orphan is in the LLC.
func checkSharers(t *testing.T, h *Hierarchy) {
	t.Helper()
	for core := 0; core < h.cfg.Cores; core++ {
		bit := uint64(1) << core
		for level, c := range []*Cache{h.l1[core], h.l2[core]} {
			for _, a := range c.Lines() {
				mask, inLLC := h.llc.sharersOf(a)
				if !inLLC {
					mask = h.orphans[a]
				}
				if mask&bit == 0 {
					t.Fatalf("core %d holds %#x in L%d (in LLC: %v) but its sharer bit is clear (mask %#x)",
						core, a, level+1, inLLC, mask)
				}
			}
		}
	}
	for a := range h.orphans {
		if h.llc.Probe(a) {
			t.Fatalf("orphan %#x is present in the LLC", a)
		}
	}
}

// TestSharerMaskProperty drives a seeded random load/store mix from 16
// cores through a hierarchy whose LLC evicts constantly and whose prefetch
// installs evict demand lines, checking the sharer invariant after every
// access and that the controller sees exactly the traffic of a reference
// hierarchy that back-invalidates by probing every core.
func TestSharerMaskProperty(t *testing.T) {
	const (
		cores    = 16
		lines    = 32
		accesses = 20000
	)
	span := uint64(lines * hybrid.CachelineSize)
	prefetch := func(addr uint64) int { return int(addr/hybrid.CachelineSize) % 3 }
	h, ctrl := newSharerHierarchy(cores, span, prefetch)
	ref, refCtrl := newSharerHierarchy(cores, span, prefetch)
	ref.probeAll = true

	rng := rand.New(rand.NewPCG(1, 2))
	orphaned, writebacks := 0, 0
	for i := 0; i < accesses; i++ {
		core := rng.IntN(cores)
		addr := uint64(rng.IntN(lines)) * hybrid.CachelineSize
		write := rng.IntN(10) < 3
		now := uint64(i) * 10
		h.Access(core, now, addr, write)
		ref.Access(core, now, addr, write)

		checkSharers(t, h)
		if !slices.Equal(ctrl.ops, refCtrl.ops) {
			t.Fatalf("access %d (core %d, %#x, write %v): controller traffic diverged from the full-probe reference\n got %v\nwant %v",
				i, core, addr, write, ctrl.ops, refCtrl.ops)
		}
		if len(h.orphans) > 0 {
			orphaned++
		}
	}
	for _, op := range ctrl.ops {
		if op.write {
			writebacks++
		}
	}
	// The run must actually exercise the orphan path and dirty evictions,
	// or the comparison above proves nothing about them.
	if orphaned == 0 || writebacks == 0 {
		t.Fatalf("run never exercised the paths under test: %d accesses with orphans, %d writebacks",
			orphaned, writebacks)
	}

	h.Flush(accesses * 10)
	ref.Flush(accesses * 10)
	if !slices.Equal(ctrl.ops, refCtrl.ops) {
		t.Fatal("flush traffic diverged from the full-probe reference")
	}
	if len(h.orphans) != 0 {
		t.Fatalf("flush left %d orphans", len(h.orphans))
	}
}

// TestOrphanedLineBackInvalidated pins the inclusion break: a prefetch
// install evicts the demand line from the LLC while the line is still
// filled into the core's L2/L1. When another core later re-installs the
// line in the LLC and it is evicted again, that eviction must still
// back-invalidate the orphaned copy and write it back, since it is dirty.
func TestOrphanedLineBackInvalidated(t *testing.T) {
	const (
		stride = 4 * hybrid.CachelineSize // one LLC set's line-to-line distance
		a      = 0
	)
	prefetching := true
	h, ctrl := newSharerHierarchy(2, 1<<20, func(addr uint64) int {
		if prefetching && addr == a {
			return 2
		}
		return 0
	})

	// Core 0 stores to a. Its two same-set prefetches fill the 2-way LLC
	// set behind it, evicting a before it reaches core 0's L2/L1.
	h.Access(0, 0, a, true)
	if h.llc.Probe(a) {
		t.Fatal("setup: the prefetch installs did not evict the demand line")
	}
	if !h.l1[0].Probe(a) || h.orphans[a] != 1 {
		t.Fatalf("setup: want a orphaned in core 0, got L1 %v orphans %v", h.l1[0].Probe(a), h.orphans)
	}

	// Core 1 reads a: an LLC miss re-installs it, taking over core 0's bit.
	prefetching = false
	h.Access(1, 100, a, false)
	if mask, ok := h.llc.sharersOf(a); !ok || mask != 0b11 {
		t.Fatalf("re-installed a has sharers %#b (present %v), want 0b11", mask, ok)
	}
	if len(h.orphans) != 0 {
		t.Fatalf("orphans %v survived the re-install", h.orphans)
	}

	// Two more lines through the same set evict a again.
	ctrl.ops = nil
	h.Access(1, 200, a+stride, false)
	h.Access(1, 300, a+2*stride, false)
	if h.llc.Probe(a) {
		t.Fatal("a was not evicted from the LLC")
	}
	for core := 0; core < 2; core++ {
		if h.l1[core].Probe(a) || h.l2[core].Probe(a) {
			t.Fatalf("core %d still holds a after its LLC eviction", core)
		}
	}
	if !slices.Contains(ctrl.ops, memOp{a, true}) {
		t.Fatalf("core 0's dirty copy of a was not written back: %v", ctrl.ops)
	}
}

// TestNewHierarchyCoresBound pins that a hierarchy refuses core counts its
// one-word sharer mask cannot represent.
func TestNewHierarchyCoresBound(t *testing.T) {
	for _, cores := range []int{0, MaxCores + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHierarchy accepted %d cores", cores)
				}
			}()
			newSharerHierarchy(cores, 1<<20, func(uint64) int { return 0 })
		}()
	}
	h, _ := newSharerHierarchy(MaxCores, 1<<20, func(uint64) int { return 0 })
	h.Access(MaxCores-1, 0, 0, true)
	if mask, _ := h.llc.sharersOf(0); mask != 1<<(MaxCores-1) {
		t.Fatalf("core %d sharer mask %#x", MaxCores-1, mask)
	}
}
