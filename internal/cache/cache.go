// Package cache models the processor-side cache hierarchy of Table I:
// per-core L1/L2 and a shared, inclusive LLC with back-invalidation, all
// metadata-only (the functional data plane lives in the memory controller
// and the run harness). Dirty LLC evictions become memory-controller writes;
// LLC misses become controller reads; decompression by-products can be
// installed as free prefetches (Section III-E, memory-to-LLC prefetching).
//
// Back-invalidation is directed by a per-line sharer mask, as in real
// inclusive LLC directories: each LLC way carries one bit per core, and an
// LLC eviction invalidates only the cores whose bit is set. The mask is a
// superset of true presence — a core's bit is set whenever that core's L2
// (and so its L1, since L1 ⊆ L2 per core) holds the line; a stale bit costs
// one no-op probe, a missing bit would leave a copy behind. A bit is set on
// L2 fill and cleared on L2 eviction. One case escapes the LLC: a prefetch
// install can evict the demand line installed just before it in the same
// set, and that line is still filled into the core's L2/L1. Such orphaned
// lines keep their sharer bits in a small map on the hierarchy until the
// line is installed in the LLC again, when the bits move into its mask.
package cache

import (
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// Config describes one cache level.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency uint64 // access latency in cycles
}

// cacheLine is the per-way payload in the kit's tag directory; the line
// address, valid bit and LRU rank live in the directory's way metadata.
type cacheLine struct {
	dirty bool
}

// Cache is one set-associative, LRU, write-back cache level on the shared
// controller-kit directory (hybrid.Dir + hybrid.LRU).
type Cache struct {
	cfg  Config
	dir  *hybrid.Dir[cacheLine]
	rep  hybrid.Replacer
	tick uint64
	// sharers is the per-way core-presence mask, parallel to the directory's
	// ways (set-major). Only the hierarchy's shared LLC allocates it; for
	// every other cache it is nil and Victim.Sharers is zero.
	sharers []uint64

	hits, misses *sim.Counter
}

// New builds a cache and registers hit/miss counters in stats under the
// level's name scope. A config with an empty Name registers bare
// "hits"/"misses", for callers that hand in an already-scoped view.
func New(cfg Config, stats *sim.Stats) *Cache {
	c := &Cache{
		cfg: cfg,
		dir: hybrid.NewDirSets[cacheLine](uint64(cfg.Sets), cfg.Ways),
		rep: hybrid.LRU{},
	}
	s := stats.Scope(cfg.Name)
	c.hits = s.Counter("hits")
	c.misses = s.Counter("misses")
	return c
}

// Hits returns the typed handle of the level's hit counter.
func (c *Cache) Hits() *sim.Counter { return c.hits }

// Misses returns the typed handle of the level's miss counter.
func (c *Cache) Misses() *sim.Counter { return c.misses }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) int {
	return int((addr / hybrid.CachelineSize) % uint64(c.cfg.Sets))
}

func (c *Cache) find(addr uint64) (int, int) {
	si := c.index(addr)
	return si, c.dir.Lookup(si, addr)
}

// Access looks up the line at addr (line-aligned), updating LRU and
// counters. If write is true and the line hits, it is marked dirty.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.tick++
	if si, w := c.find(addr); w >= 0 {
		c.dir.Touch(si, w, c.tick)
		if write {
			c.dir.Payload(si, w).dirty = true
		}
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	return false
}

// Probe reports presence without LRU or counter side effects.
func (c *Cache) Probe(addr uint64) bool {
	_, w := c.find(addr)
	return w >= 0
}

// Victim describes a line displaced by Install. Sharers is the displaced
// way's core-presence mask (zero for caches that do not track sharers).
type Victim struct {
	Addr    uint64
	Sharers uint64
	Dirty   bool
	Valid   bool
}

// Install inserts the line at addr (line-aligned), evicting the LRU way if
// the set is full. It returns the displaced victim, if any. Installing an
// already-present line just refreshes it.
func (c *Cache) Install(addr uint64, dirty bool) Victim {
	c.tick++
	si, w := c.find(addr)
	if w >= 0 {
		c.dir.Touch(si, w, c.tick)
		line := c.dir.Payload(si, w)
		line.dirty = line.dirty || dirty
		return Victim{}
	}
	vw := c.dir.Victim(si, c.rep)
	line := c.dir.Payload(si, vw)
	v := Victim{}
	if key, valid := c.dir.Tag(si, vw); valid {
		v = Victim{Addr: key, Dirty: line.dirty, Valid: true}
	}
	if c.sharers != nil {
		i := si*c.cfg.Ways + vw
		v.Sharers = c.sharers[i]
		c.sharers[i] = 0
	}
	c.dir.Fill(si, vw, addr, c.tick)
	*line = cacheLine{dirty: dirty}
	return v
}

// MarkDirty sets the dirty bit if the line is present and reports presence.
func (c *Cache) MarkDirty(addr uint64) bool {
	if si, w := c.find(addr); w >= 0 {
		c.dir.Payload(si, w).dirty = true
		return true
	}
	return false
}

// addSharers ORs mask into the sharer mask of the line at addr and reports
// whether the line is present. Only valid on a sharer-tracking cache.
func (c *Cache) addSharers(addr, mask uint64) bool {
	si, w := c.find(addr)
	if w < 0 {
		return false
	}
	c.sharers[si*c.cfg.Ways+w] |= mask
	return true
}

// release clears mask from the sharer mask of the line at addr, marking the
// line dirty if dirty is set, and reports whether the line is present. Only
// valid on a sharer-tracking cache.
func (c *Cache) release(addr, mask uint64, dirty bool) bool {
	si, w := c.find(addr)
	if w < 0 {
		return false
	}
	c.sharers[si*c.cfg.Ways+w] &^= mask
	if dirty {
		c.dir.Payload(si, w).dirty = true
	}
	return true
}

// Invalidate removes the line if present, reporting (present, wasDirty).
func (c *Cache) Invalidate(addr uint64) (bool, bool) {
	if si, w := c.find(addr); w >= 0 {
		line := c.dir.Payload(si, w)
		dirty := line.dirty
		c.dir.Invalidate(si, w)
		*line = cacheLine{}
		if c.sharers != nil {
			c.sharers[si*c.cfg.Ways+w] = 0
		}
		return true, dirty
	}
	return false, false
}

// DirtyLines returns the addresses of all dirty lines (used by Flush).
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for si := 0; si < c.cfg.Sets; si++ {
		for w := 0; w < c.cfg.Ways; w++ {
			if key, valid := c.dir.Tag(si, w); valid && c.dir.Payload(si, w).dirty {
				out = append(out, key)
			}
		}
	}
	return out
}

// Lines returns the addresses of all valid lines.
func (c *Cache) Lines() []uint64 {
	var out []uint64
	for si := 0; si < c.cfg.Sets; si++ {
		for w := 0; w < c.cfg.Ways; w++ {
			if key, valid := c.dir.Tag(si, w); valid {
				out = append(out, key)
			}
		}
	}
	return out
}
