package compress

// The paper feeds to-be-compressed data into both FPC and BDI hardware
// modules and accepts whichever yields the higher compression factor
// (Section III-B). Compressor bundles that policy together with Baryon's CF
// quantisation and the cacheline-aligned restriction of Section III-E.

// Baryon data geometry (Section III-B): 64 B cachelines, 256 B sub-blocks.
const (
	CachelineSize = 64
	SubBlockSize  = 256
)

// CFs supported by Baryon's metadata formats.
var SupportedCFs = [3]int{4, 2, 1}

// Compressor selects the best of its enabled algorithms per unit and
// applies Baryon's fit rules. The zero value is a plain (non-aligned)
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
	// scratch backs MaxCF's candidate-range assembly; lazily allocated so
	// the zero value stays usable. A Compressor is owned by one controller,
	// so the buffer is never shared across goroutines.
	scratch []byte
}

// New returns a compressor; aligned selects cacheline-aligned mode
// (Baryon's default).
func New(aligned bool) *Compressor { return &Compressor{Aligned: aligned} }

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
// the search. This is the predicate behind every fit trial (RangeFits,
// write-hit recompression, compressed writeback), where the exact size is
// irrelevant.
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

// RangeFits reports whether a contiguous range of cf sub-blocks (data, with
// len(data) == cf*SubBlockSize) can be stored in a single sub-block slot at
// compression factor cf. CF 1 always fits. In aligned mode each of the four
// 64·cf-byte chunks must independently compress into one cacheline.
func (c *Compressor) RangeFits(data []byte, cf int) bool {
	if len(data) != cf*SubBlockSize {
		panic("compress: RangeFits length mismatch")
	}
	if cf == 1 {
		return true
	}
	if !c.Aligned {
		return c.FitsWithin(data, SubBlockSize)
	}
	chunk := CachelineSize * cf
	for off := 0; off < len(data); off += chunk {
		if !c.FitsWithin(data[off:off+chunk], CachelineSize) {
			return false
		}
	}
	return true
}

// MaxCF returns the largest supported CF at which the range starting with
// the given sub-blocks fits in one slot. sub returns the data of the i-th
// sub-block of the candidate range (i in [0,4)); the caller guarantees the
// range is contiguous and aligned (Rule 2). The result is 4, 2 or 1.
func (c *Compressor) MaxCF(sub func(i int) []byte) int {
	if c.scratch == nil {
		c.scratch = make([]byte, 4*SubBlockSize)
	}
	buf := c.scratch
	for _, cf := range SupportedCFs {
		if cf == 1 {
			return 1
		}
		data := buf[:cf*SubBlockSize]
		for i := 0; i < cf; i++ {
			copy(data[i*SubBlockSize:], sub(i))
		}
		if c.RangeFits(data, cf) {
			return cf
		}
	}
	return 1
}

// AchievedCF returns len(data) divided by its best compressed size — the
// unquantised compression factor used for the CF statistics in Fig. 12.
func (c *Compressor) AchievedCF(data []byte) float64 {
	sz := c.CompressedSize(data)
	if sz == 0 {
		return float64(len(data))
	}
	return float64(len(data)) / float64(sz)
}

// LineCF quantises one 64 B cacheline's compressibility to {1,2,4}: 4 if it
// fits in 16 B, 2 if it fits in 32 B, else 1. DICE packs lines this way.
func (c *Compressor) LineCF(line []byte) int {
	sz := c.CompressedSize(line)
	switch {
	case sz <= CachelineSize/4:
		return 4
	case sz <= CachelineSize/2:
		return 2
	default:
		return 1
	}
}
