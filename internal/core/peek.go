package core

import (
	"fmt"

	"baryon/internal/hybrid"
)

// PeekLine returns the current canonical content of the 64 B line at addr
// with no timing or statistics side effects. It walks the same priority
// order as the access flow (stage area, then committed fast memory, then
// slow memory), so integrity tests can compare the full data plane against a
// functional reference.
func (c *Controller) PeekLine(addr uint64) []byte {
	addr = hybrid.LineAddr(addr)
	b := c.blockOf(addr) % c.geom.osBlocks
	s := c.subOf(addr)
	line := int(addr % c.geom.subBytes / hybrid.CachelineSize)
	super := c.superOf(b)
	blkOff := c.blkOff(b)

	ssi := c.stageSetIdx(super)
	if w, slot := c.stageFind(ssi, super, blkOff, s); w >= 0 {
		fr := c.stageDir.Payload(ssi, w)
		rg := fr.tag.Slots[slot]
		if rg.Zero {
			return zeroLine()
		}
		lineInRange := (s-int(rg.SubOff))*c.geom.linesPerSub + line
		return fr.data[slot][lineInRange*64 : lineInRange*64+64]
	}

	ri := &c.remap[b]
	switch {
	case ri.z:
		return zeroLine()
	case ri.remap&(1<<s) != 0:
		si := c.setIdx(super)
		fr := c.fastDir.Payload(si, int(ri.way))
		idx := findOcc(fr, uint8(blkOff), uint8(s))
		if idx < 0 {
			panic("core: PeekLine found remap bit without committed range")
		}
		rg := &fr.occ[idx]
		lineInRange := (s-int(rg.subOff))*c.geom.linesPerSub + line
		return rg.data[lineInRange*64 : lineInRange*64+64]
	}
	return c.Store.Bytes(addr, 64)
}

// CheckInvariants validates the structural rules on demand (tests call this
// after access storms):
//
//	Rule 1: every frame holds ranges of a single super-block (by
//	        construction of the types; checked via remap consistency),
//	Rule 3: all committed sub-blocks of a block live in one frame,
//	Rule 4: committed layouts are sorted by (blkOff, subOff),
//	plus: remap entries and frame occupancy agree, invalid frames hold
//	no ranges, each stage way's directory tag and valid bit equal its
//	stage tag's super-block and valid bit,
//	and the fit rule: every staged or committed range with CF > 1 (other
//	than a Z descriptor) compresses into its slot, and every CF2/CF4
//	compressed-writeback hint names a range whose slow-memory content
//	does too.
//
// It returns a description of the first violation, or "".
func (c *Controller) CheckInvariants() string {
	for si := 0; si < int(c.geom.sets); si++ {
		for wi := 0; wi < c.geom.ways; wi++ {
			key, valid := c.fastDir.Tag(si, wi)
			f := c.fastDir.Payload(si, wi)
			if !valid {
				if len(f.occ) != 0 {
					return "invalid frame holds ranges"
				}
				continue
			}
			if len(f.occ) > 8 {
				return "frame holds more than 8 slots"
			}
			for i := 1; i < len(f.occ); i++ {
				a, b := f.occ[i-1], f.occ[i]
				if a.blkOff > b.blkOff || (a.blkOff == b.blkOff && a.subOff >= b.subOff) {
					return "frame occupancy not sorted (Rule 4)"
				}
			}
			for i := range f.occ {
				rg := &f.occ[i]
				b := c.blockID(hybrid.SuperBlockID(key), rg.blkOff)
				ri := &c.remap[b]
				if ri.way != int32(wi) {
					return "occupied range's remap entry points elsewhere (Rule 3)"
				}
				if !rg.zero && rg.cf > 1 && !c.comp.RangeFits(rg.data, int(rg.cf)) {
					return fmt.Sprintf("committed range of block %d at sub %d does not fit CF %d", b, rg.subOff, rg.cf)
				}
				for s := rg.subOff; s < rg.subOff+rg.cf; s++ {
					if ri.remap&(1<<s) == 0 {
						return "occupied sub-block missing from remap bits"
					}
				}
			}
		}
	}
	// Every set remap bit must have a backing range.
	for b := range c.remap {
		ri := &c.remap[b]
		if ri.remap == 0 || ri.z {
			continue
		}
		super := c.superOf(uint64(b))
		si := c.setIdx(super)
		if !c.holdsSuper(si, int(ri.way), super) {
			return "remap entry points at a frame of another super-block (Rule 1)"
		}
		f := c.fastDir.Payload(si, int(ri.way))
		for s := 0; s < 8; s++ {
			if ri.remap&(1<<s) != 0 && findOcc(f, uint8(c.blkOff(uint64(b))), uint8(s)) < 0 {
				return "remap bit set without a committed range"
			}
		}
	}
	for ssi := 0; ssi < int(c.geom.stageSets); ssi++ {
		for w := 0; w < c.geom.stageWays; w++ {
			fr := c.stageDir.Payload(ssi, w)
			if key, valid := c.stageDir.Tag(ssi, w); valid != fr.tag.Valid || valid && key != uint64(fr.tag.Super) {
				return fmt.Sprintf("stage way %d of set %d: directory tag disagrees with the stage tag", w, ssi)
			}
			if !fr.tag.Valid {
				continue
			}
			for slot, rg := range fr.tag.Slots {
				if rg.Valid && !rg.Zero && rg.CF > 1 && !c.comp.RangeFits(fr.data[slot], int(rg.CF)) {
					b := c.blockID(fr.tag.Super, rg.BlkOff)
					return fmt.Sprintf("staged range of block %d at sub %d does not fit CF %d", b, rg.SubOff, rg.CF)
				}
			}
		}
	}
	// A hint promises the range sits compressed in slow memory, so its
	// canonical content must still pass the fit trial.
	for b := range c.cf2Hint {
		for _, cf := range [2]int{2, 4} {
			for start := 0; start < 8; start += cf {
				if c.hinted(uint64(b), start, cf) && !c.comp.RangeFits(c.rangeContentScratch(uint64(b), start, cf), cf) {
					return fmt.Sprintf("CF %d hint on block %d at sub %d names a range that does not fit", cf, b, start)
				}
			}
		}
	}
	return ""
}
