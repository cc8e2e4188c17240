// Package hybrid defines what every memory controller in this repository
// shares: the address geometry of the baseline hybrid memory system
// (Section III-A of the paper — 2 kB blocks, 256 B sub-blocks, 16 kB
// super-blocks, set-associative fast memory), the controller interface the
// CPU cache hierarchy drives, the physical slow-memory backing store that
// holds canonical data bytes, and the controller kit: the tag directory
// (Dir), the replacement policies (Replacer), the migration/writeback
// engine over the memory tiers (Engine) and Kit, the engine, store and
// registry bundle every controller embeds.
package hybrid

import "baryon/internal/sim"

// Geometry constants (Sections III-A and III-B).
const (
	CachelineSize = 64
	BlockSize     = 2048
	SubBlockSize  = 256
	SubBlocks     = BlockSize / SubBlockSize     // 8
	LinesPerSub   = SubBlockSize / CachelineSize // 4
)

// BlockID identifies a 2 kB data block in the OS-visible physical space.
type BlockID uint64

// SuperBlockID identifies a group of contiguous blocks (default 8 = 16 kB).
type SuperBlockID uint64

// BlockOf returns the block containing the physical address.
func BlockOf(addr uint64) BlockID { return BlockID(addr / BlockSize) }

// SubOf returns the sub-block index (0..7) of the address within its block.
func SubOf(addr uint64) int { return int(addr % BlockSize / SubBlockSize) }

// LineOf returns the cacheline index (0..3) within the sub-block.
func LineOf(addr uint64) int { return int(addr % SubBlockSize / CachelineSize) }

// LineAddr returns the address truncated to its cacheline.
func LineAddr(addr uint64) uint64 { return addr &^ (CachelineSize - 1) }

// Result reports the outcome of one memory-controller access, consumed by
// the cache hierarchy and the statistics harness.
type Result struct {
	// Done is the cycle at which the demanded cacheline is available.
	Done uint64
	// ServedByFast is true when the demanded data came from fast memory
	// (the "fast memory serve rate" of Fig. 11).
	ServedByFast bool
	// Data is the 64 B content of the demanded cacheline (reads only).
	Data []byte
	// Prefetched lists additional cacheline addresses whose data became
	// available for free (memory-to-LLC prefetch from decompression,
	// Section III-E); the hierarchy may install them in the LLC.
	Prefetched []PrefetchedLine
}

// PrefetchedLine is one bandwidth-free extra line from decompression.
type PrefetchedLine struct {
	Addr uint64
	Data []byte
}

// Controller is a hybrid-memory controller: it owns both memory devices and
// the canonical data plane below the processor caches.
type Controller interface {
	// Access performs a 64 B read or write at physical address addr (already
	// line-aligned) starting at cycle now. For writes, data is the new line
	// content. For reads, Result.Data is the line content. Result.Data and
	// Result.Prefetched are read-only and may alias controller-owned scratch:
	// consume (or copy) them before the next Access on the same controller.
	Access(now uint64, addr uint64, write bool, data []byte) Result
	// Stats exposes the controller's counters.
	Stats() *sim.Stats
	// Name identifies the design (for reports).
	Name() string
}

// EngineProvider is implemented by controllers built on the shared
// migration/writeback Engine (every Kit-embedding controller). The CPU
// runner reads the engine's tier list through it for traffic and energy
// reports without knowing the concrete controller type.
type EngineProvider interface {
	Engine() *Engine
}

// DataPeeker is implemented by controllers that can expose the current
// canonical content of a line for integrity testing (reads with no timing
// or statistics side effects).
type DataPeeker interface {
	PeekLine(addr uint64) []byte
}

// InstructionSink is implemented by controllers that keep MPKI-style
// statistics and need the retired-instruction clock.
type InstructionSink interface {
	AddInstructions(n uint64)
}
