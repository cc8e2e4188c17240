package metadata

import (
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// RemapCache models the on-chip SRAM remap cache of Table I: 256 sets,
// 8 ways, one line per super-block holding that super-block's eight 2-byte
// remap entries (16 B) plus tag. It tracks presence/dirtiness for timing and
// metadata-traffic accounting; the authoritative entries live in the
// controller's remap table (resident in fast memory). The tag array is the
// controller kit's directory, keyed by super-block ID, with LRU replacement.
type RemapCache struct {
	dir  *hybrid.Dir[rcLine]
	tick uint64

	hits, misses, writebacks *sim.Counter
}

// rcLine is the directory payload of one cached line: whether its entries
// changed since the line was filled.
type rcLine struct {
	dirty bool
}

// NewRemapCache builds a sets x ways remap cache and registers its
// hit/miss/writeback counters on stats. Callers hand in an already-scoped
// view (the controller uses stats.Scope("remapCache")), so the cache itself
// registers bare names.
func NewRemapCache(sets, ways int, stats *sim.Stats) *RemapCache {
	return &RemapCache{
		dir:        hybrid.NewDirSets[rcLine](uint64(sets), ways),
		hits:       stats.Counter("hits"),
		misses:     stats.Counter("misses"),
		writebacks: stats.Counter("writebacks"),
	}
}

// Lookup probes for super's line, updating LRU and counters.
func (c *RemapCache) Lookup(super uint64) bool {
	c.tick++
	si := c.dir.SetIndex(super)
	if w := c.dir.Lookup(si, super); w >= 0 {
		c.dir.Touch(si, w, c.tick)
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	return false
}

// Insert fills super's line after a miss. It returns whether a dirty victim
// line was written back (16 B of metadata traffic to the off-chip table).
func (c *RemapCache) Insert(super uint64) (wroteBack bool) {
	c.tick++
	si := c.dir.SetIndex(super)
	if w := c.dir.Lookup(si, super); w >= 0 {
		c.dir.Touch(si, w, c.tick)
		return false
	}
	w := c.dir.Victim(si, hybrid.LRU{})
	line := c.dir.Payload(si, w)
	_, valid := c.dir.Tag(si, w)
	wroteBack = valid && line.dirty
	if wroteBack {
		c.writebacks.Inc()
	}
	c.dir.Fill(si, w, super, c.tick)
	line.dirty = false
	return wroteBack
}

// MarkDirty records an update to super's entries. It returns true when the
// line is cached (update absorbed on chip) and false when the update must go
// straight to the off-chip table.
func (c *RemapCache) MarkDirty(super uint64) bool {
	si := c.dir.SetIndex(super)
	if w := c.dir.Lookup(si, super); w >= 0 {
		c.dir.Payload(si, w).dirty = true
		return true
	}
	return false
}

// HitRate returns hits/(hits+misses).
func (c *RemapCache) HitRate() float64 {
	return sim.Ratio(c.hits.Value(), c.hits.Value()+c.misses.Value())
}

// StorageBytes returns the SRAM budget of the cache: per line, eight 2-byte
// entries plus a 26-bit tag+state rounded to 4 bytes.
func (c *RemapCache) StorageBytes() int {
	return int(c.dir.Sets()) * c.dir.Assoc() * (8*RemapEntryBytes + 4)
}
