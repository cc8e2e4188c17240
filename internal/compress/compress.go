package compress

// The paper feeds to-be-compressed data into both FPC and BDI hardware
// modules and accepts whichever yields the higher compression factor
// (Section III-B). Compressor bundles that policy together with Baryon's CF
// quantisation and the cacheline-aligned restriction of Section III-E.

// CachelineSize is the unit of a DDRx burst and of the cacheline-aligned
// fit rule.
const CachelineSize = 64

// Compressor selects the best of its enabled algorithms per unit and
// applies Baryon's fit rule. The zero value is a plain (non-aligned)
// FPC+BDI compressor, the paper's default pairing.
type Compressor struct {
	// Aligned enforces cacheline-aligned compression: every 64·n-byte chunk
	// of a CF=n range must independently compress into 64 bytes, so a single
	// DDRx burst returns decodable data (Fig. 7).
	Aligned bool
	// WithCPack adds the C-Pack algorithm to the best-of selection (the
	// alternative scheme the paper cites; "the exact choices are orthogonal
	// to our design").
	WithCPack bool
	fpc       FPC
	bdi       BDI
	cpack     CPack
}

// CompressedSize returns the smallest enabled encoding of data, clamped to
// len(data) (hardware stores the original when compression loses).
func (c *Compressor) CompressedSize(data []byte) int {
	best := c.fpc.CompressedSize(data)
	if b := c.bdi.CompressedSize(data); b < best {
		best = b
	}
	if c.WithCPack {
		if p := c.cpack.CompressedSize(data); p < best {
			best = p
		}
	}
	if best > len(data) {
		best = len(data)
	}
	return best
}

// FitsWithin reports whether the best enabled encoding of data fits in
// budget bytes — exactly CompressedSize(data) <= budget, but without the
// full best-of search: each algorithm's size-only fast path bails out as
// soon as the budget is exceeded, and the first algorithm that fits ends
// the search. RangeFits, the one fit trial, is built on it; the exact size
// is irrelevant there.
func (c *Compressor) FitsWithin(data []byte, budget int) bool {
	if budget >= len(data) {
		return true // hardware stores the original when compression loses
	}
	if c.fpc.SizeAtMost(data, budget) {
		return true
	}
	if c.bdi.SizeAtMost(data, budget) {
		return true
	}
	return c.WithCPack && c.cpack.SizeAtMost(data, budget)
}

// IsZero reports whether data is entirely zero (the Z-bit special case).
func (c *Compressor) IsZero(data []byte) bool { return allZero(data) }

// RangeFits reports whether data, a contiguous aligned range of cf
// sub-blocks, can be stored in one sub-block slot (len(data)/cf bytes) at
// compression factor cf. CF 1 always fits. In aligned mode each 64·cf-byte
// chunk must independently compress into one cacheline; otherwise the whole
// range must compress into the slot. The slot size follows the data, so the
// one rule serves Baryon's 256 B sub-blocks, Baryon-64B's 64 B sub-blocks
// and DICE's 256 B line group alike.
func (c *Compressor) RangeFits(data []byte, cf int) bool {
	if cf == 1 {
		return true
	}
	if !c.Aligned {
		return c.FitsWithin(data, len(data)/cf)
	}
	chunk := CachelineSize * cf
	for off := 0; off < len(data); off += chunk {
		if !c.FitsWithin(data[off:off+chunk], CachelineSize) {
			return false
		}
	}
	return true
}
