package baselines

import (
	"baryon/internal/compress"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// DICE models the compressed DRAM cache of Young et al. (ISCA 2017): 64 B
// blocks in a direct-mapped cache with Dynamic-Indexing Compressed
// Encoding — the cache index depends on the compressibility of the
// spatially-adjacent group, so that compressed neighbours land in the same
// slot while incompressible lines spread over distinct slots. Per the
// paper's setup it gets the same 5-cycle decompression latency as Baryon, a
// perfect way predictor, and (here) a perfect CF predictor, its most
// optimistic configuration.
//
// The model works on aligned 4-line (256 B) groups: the group's quantised
// compression factor cf (1, 2 or 4, from the real FPC/BDI compressors)
// groups cf adjacent lines into one slot at index (line-address / cf).
// A hit on a compressed slot decodes up to four lines per 64 B transfer,
// which become free memory-to-LLC prefetches — DICE's bandwidth benefit.
//
// On the kit, DICE is the direct-mapped special case: a Dir with one way
// per set, keyed by the compression-run id (the CF-dependent index).
type DICE struct {
	hybrid.Kit
	comp *compress.Compressor

	dir               *hybrid.Dir[diceSlot]
	cfCache           map[uint64]uint8 // group -> current CF (the CF predictor)
	decompressLatency uint64

	accesses, hits, misses, writebacks *sim.Counter
	servedFast, decompressions         *sim.Counter
}

// diceSlot is the directory payload of one direct-mapped slot; the run id
// lives in the way's Key.
type diceSlot struct {
	cf      uint8
	present uint8 // bitmask of the run's lines actually present (cf wide)
	dirty   uint8
}

// NewDICE builds the DICE baseline on kit with fastBytes of cache.
func NewDICE(kit hybrid.Kit, fastBytes, decompressLatency uint64) *DICE {
	d := &DICE{
		Kit:               kit,
		comp:              &compress.Compressor{Aligned: true},
		dir:               hybrid.NewDirSets[diceSlot](fastBytes/hybrid.CachelineSize, 1),
		cfCache:           make(map[uint64]uint8),
		decompressLatency: decompressLatency,
	}
	cstats := kit.Stats().Scope("dice")
	d.accesses = cstats.Counter("accesses")
	d.hits = cstats.Counter("hits")
	d.misses = cstats.Counter("misses")
	d.writebacks = cstats.Counter("writebacks")
	d.servedFast = cstats.Counter("servedFast")
	d.decompressions = cstats.Counter("decompressions")
	d.Engine().CountWritebacks(d.writebacks)
	d.Engine().InstrumentLatency(cstats)
	return d
}

// Name identifies the design.
func (d *DICE) Name() string { return "DICE" }

// groupCF computes (and caches) the quantised CF of the 4-line group.
func (d *DICE) groupCF(group uint64) uint8 {
	if cf, ok := d.cfCache[group]; ok {
		return cf
	}
	content := d.Store.Bytes(group*256, 256)
	cf := uint8(1)
	switch {
	case d.comp.RangeFits(content, 4):
		cf = 4
	case d.comp.RangeFits(content, 2):
		cf = 2
	}
	d.cfCache[group] = cf
	return cf
}

// slotFor returns the set index, payload and run id of the slot for a line
// at the group's CF, plus the slot's fast-memory address.
func (d *DICE) slotFor(lineIdx uint64, cf uint8) (int, *diceSlot, uint64, uint64) {
	run := lineIdx / uint64(cf)
	si := d.dir.SetIndex(run)
	return si, d.dir.Payload(si, 0), run, uint64(si) * 64
}

// Access implements hybrid.Controller.
func (d *DICE) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	d.accesses.Inc()
	lineIdx := addr / 64
	group := addr / 256
	cf := d.groupCF(group)
	si, slot, run, slotAddr := d.slotFor(lineIdx, cf)
	within := uint8(lineIdx % uint64(cf))

	if write {
		d.Store.WriteLine(addr, data)
	}

	if d.dir.Lookup(si, run) >= 0 && slot.cf == cf && slot.present&(1<<within) != 0 {
		d.hits.Inc()
		if write {
			// The write may change the group's compressibility; with the
			// perfect CF predictor the slot is re-installed under the new
			// CF on the next touch (invalidate the stale cached CF).
			delete(d.cfCache, group)
			newCF := d.groupCF(group)
			if newCF != cf {
				d.writebackSlot(now, si, slot)
				d.dir.Invalidate(si, 0)
				d.installRun(now, lineIdx, newCF, true)
			} else {
				slot.dirty |= 1 << within
			}
			d.Engine().FillFast(now, slotAddr, 64)
			return hybrid.Result{Done: now}
		}
		done := d.Engine().FastRead(now, slotAddr, 64)
		if cf > 1 {
			done += d.decompressLatency
			d.decompressions.Inc()
		}
		d.servedFast.Inc()
		d.Engine().ObserveFast(now, done, "hit")
		res := hybrid.Result{Done: done, ServedByFast: true, Data: d.Store.Line(addr)}
		base := run * uint64(cf) * 64
		for l := uint8(0); l < cf; l++ {
			if l == within || slot.present&(1<<l) == 0 {
				continue
			}
			laddr := base + uint64(l)*64
			res.Prefetched = append(res.Prefetched, hybrid.PrefetchedLine{Addr: laddr, Data: d.Store.Line(laddr)})
		}
		return res
	}

	// Miss: tag-and-data units live in DRAM, so discovering the miss costs
	// one fast probe; then serve from slow memory and install the run.
	d.misses.Inc()
	probe := d.Engine().FastRead(now, slotAddr, 64)
	var res hybrid.Result
	if write {
		res = hybrid.Result{Done: now}
	} else {
		done := d.Engine().SlowRead(probe, addr, 64)
		d.Engine().ObserveSlow(now, done, "miss")
		res = hybrid.Result{Done: done, Data: d.Store.Line(addr)}
	}
	d.installRun(now, lineIdx, cf, write)
	return res
}

// installRun installs the compressed run containing lineIdx, evicting any
// dirty occupant of the slot.
func (d *DICE) installRun(now uint64, lineIdx uint64, cf uint8, write bool) {
	si, slot, run, slotAddr := d.slotFor(lineIdx, cf)
	within := uint8(lineIdx % uint64(cf))
	if d.dir.Lookup(si, run) < 0 || slot.cf != cf {
		d.writebackSlot(now, si, slot)
	}
	var present uint8
	for l := uint8(0); l < cf; l++ {
		present |= 1 << l
	}
	// One extra burst brings the rest of the compressed run.
	if cf > 1 {
		d.Engine().FetchSlow(now, run*uint64(cf)*64, 64)
	}
	d.Engine().FillFast(now, slotAddr, 64)
	d.dir.Fill(si, 0, run, 0)
	ns := diceSlot{cf: cf, present: present}
	if write {
		ns.dirty = 1 << within
	}
	*slot = ns
}

func (d *DICE) writebackSlot(now uint64, si int, slot *diceSlot) {
	key, valid := d.dir.Tag(si, 0)
	if !valid || slot.dirty == 0 {
		return
	}
	n := uint64(0)
	for l := uint8(0); l < 4; l++ {
		if slot.dirty&(1<<l) != 0 {
			n++
		}
	}
	d.Engine().Writeback(now, key*uint64(slot.cf)*64, n*64)
	slot.dirty = 0
}
