// Package metadata implements Baryon's dual-format metadata scheme
// (Section III-C): the flexible 14-byte stage tag entries backing the
// on-chip stage tag array, and the compact 2-byte remap entries backing the
// off-chip remap table with its on-chip super-block-granularity remap cache.
// Both formats encode and decode to their exact bit budgets so the storage
// claims of the paper are verified by tests rather than assumed.
package metadata

import (
	"fmt"

	"baryon/internal/hybrid"
)

// Range describes one contiguous, aligned range of sub-blocks stored in one
// physical sub-block slot of a stage-area block (Rule 2). A range covers CF
// sub-blocks starting at SubOff (SubOff aligned to CF) of block BlkOff
// within the entry's super-block.
type Range struct {
	Valid  bool
	CF     uint8 // 1, 2 or 4
	Dirty  bool
	Zero   bool  // whole range is zero (Z-bit); CF must be 4 when Zero
	BlkOff uint8 // block within super-block (0..7)
	SubOff uint8 // first sub-block of the range (aligned to CF)
}

// Covers reports whether the range includes sub-block sub of block blkOff.
func (r Range) Covers(blkOff, sub int) bool {
	return r.Valid && int(r.BlkOff) == blkOff &&
		sub >= int(r.SubOff) && sub < int(r.SubOff)+int(r.CF)
}

// StageTag is one stage tag array entry: the metadata of one 2 kB physical
// block in the stage area (Fig. 5(a)). It packs to exactly 14 bytes.
type StageTag struct {
	Valid   bool
	Super   hybrid.SuperBlockID // 21-bit tag at paper scale
	Slots   [hybrid.SubBlocks]Range
	LRU     uint8  // 3-bit in-set recency rank
	FIFO    uint8  // 3-bit next sub-block victim pointer
	MissCnt uint16 // selective-commit statistic (Section III-E)
}

// StageTagBytes is the per-entry storage budget from Section III-B.
const StageTagBytes = 14

// encodeSlot packs one Range into 8 bits:
//
//	1 D BBB SSS   CF=1 range at sub-offset SSS
//	01 D BBB SS   CF=2 range at sub-offset 2*SS
//	001 D BBB S   CF=4 range at sub-offset 4*S
//	00001 BBB     all-zero range of block BBB (Z-bit special encoding)
//	0000 0000     empty slot
func encodeSlot(r Range) byte {
	if !r.Valid {
		return 0
	}
	d := byte(0)
	if r.Dirty {
		d = 1
	}
	if r.Zero {
		return 0x08 | r.BlkOff&7 // 0001 1(D folded) BBB — Z ranges are clean by definition
	}
	switch r.CF {
	case 1:
		return 0x80 | d<<6 | (r.BlkOff&7)<<3 | r.SubOff&7
	case 2:
		return 0x40 | d<<5 | (r.BlkOff&7)<<2 | (r.SubOff/2)&3
	case 4:
		return 0x20 | d<<4 | (r.BlkOff&7)<<1 | (r.SubOff/4)&1
	}
	panic(fmt.Sprintf("metadata: bad CF %d", r.CF))
}

func decodeSlot(b byte) Range {
	switch {
	case b == 0:
		return Range{}
	case b&0x80 != 0:
		return Range{Valid: true, CF: 1, Dirty: b&0x40 != 0, BlkOff: b >> 3 & 7, SubOff: b & 7}
	case b&0x40 != 0:
		return Range{Valid: true, CF: 2, Dirty: b&0x20 != 0, BlkOff: b >> 2 & 7, SubOff: (b & 3) * 2}
	case b&0x20 != 0:
		return Range{Valid: true, CF: 4, Dirty: b&0x10 != 0, BlkOff: b >> 1 & 7, SubOff: (b & 1) * 4}
	default:
		return Range{Valid: true, CF: 4, Zero: true, BlkOff: b & 7}
	}
}

// Encode packs the entry into its 14-byte hardware format: 1 valid bit +
// 21-bit super tag + 3-bit LRU + 3-bit FIFO + 16-bit MissCnt + 8x8-bit
// slots = 108 bits, padded to 14 bytes.
func (t *StageTag) Encode() [StageTagBytes]byte {
	var out [StageTagBytes]byte
	v := uint32(0)
	if t.Valid {
		v = 1
	}
	head := v<<31 | uint32(t.Super&0x1FFFFF)<<10 | uint32(t.LRU&7)<<7 | uint32(t.FIFO&7)<<4
	out[0] = byte(head >> 24)
	out[1] = byte(head >> 16)
	out[2] = byte(head >> 8)
	out[3] = byte(head)
	out[4] = byte(t.MissCnt >> 8)
	out[5] = byte(t.MissCnt)
	for i, r := range t.Slots {
		out[6+i] = encodeSlot(r)
	}
	return out
}

// DecodeStageTag unpacks a 14-byte entry. The super tag is truncated to its
// 21-bit field, as in hardware (set index bits reconstruct the rest).
func DecodeStageTag(b [StageTagBytes]byte) StageTag {
	head := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	t := StageTag{
		Valid:   head>>31 != 0,
		Super:   hybrid.SuperBlockID(head >> 10 & 0x1FFFFF),
		LRU:     uint8(head >> 7 & 7),
		FIFO:    uint8(head >> 4 & 7),
		MissCnt: uint16(b[4])<<8 | uint16(b[5]),
	}
	for i := range t.Slots {
		t.Slots[i] = decodeSlot(b[6+i])
	}
	return t
}

// FindRange returns the slot index of the range covering (blkOff, sub), or
// -1 when the sub-block is not staged in this entry.
func (t *StageTag) FindRange(blkOff, sub int) int {
	for i, r := range t.Slots {
		if r.Covers(blkOff, sub) {
			return i
		}
	}
	return -1
}

// FreeSlot returns the index of an empty slot, or -1 when the block is full.
func (t *StageTag) FreeSlot() int {
	for i, r := range t.Slots {
		if !r.Valid {
			return i
		}
	}
	return -1
}

// HasBlock reports whether any slot holds a range of block blkOff.
func (t *StageTag) HasBlock(blkOff int) bool {
	for _, r := range t.Slots {
		if r.Valid && int(r.BlkOff) == blkOff {
			return true
		}
	}
	return false
}
