package hybrid

import "baryon/internal/sim"

// Replacement policies of the controller kit. A Replacer picks the victim
// way of a full (or partially invalid) set; it sees only the
// design-independent WayMeta, so the same policies serve every controller.
// All policies return an in-range way index for any non-empty set.

// Replacer selects the way to evict from a set.
type Replacer interface {
	// Victim returns the index of the way to replace. set is never empty,
	// and it is the directory's own storage: Victim must only read it.
	Victim(set []WayMeta) int
	// Name identifies the policy (for DesignSpec serialisation and reports).
	Name() string
}

// LRU is least-recently-used replacement: the first invalid way wins,
// otherwise the way with the strictly smallest LastUse (earliest way on
// ties). This is the policy of the Simple and Unison baselines and of
// Baryon's set-associative cache/flat area.
type LRU struct{}

// Victim implements Replacer.
func (LRU) Victim(set []WayMeta) int {
	victim := 0
	for w := range set {
		if !set[w].Valid {
			return w
		}
		if set[w].LastUse < set[victim].LastUse {
			victim = w
		}
	}
	return victim
}

// Name implements Replacer.
func (LRU) Name() string { return "lru" }

// FIFO is first-in-first-out replacement: the first invalid way wins,
// otherwise the way with the smallest AllocSeq. Baryon's fully-associative
// area replaces in allocation order (Section III-E).
type FIFO struct{}

// Victim implements Replacer.
func (FIFO) Victim(set []WayMeta) int {
	victim := 0
	for w := range set {
		if !set[w].Valid {
			return w
		}
		if set[w].AllocSeq < set[victim].AllocSeq {
			victim = w
		}
	}
	return victim
}

// Name implements Replacer.
func (FIFO) Name() string { return "fifo" }

// Random replacement fills invalid ways first (in way order) and otherwise
// evicts a uniformly random way. It is not used by any paper design; it
// exists as a DesignSpec policy knob for custom baseline variants.
type Random struct{ rng *sim.RNG }

// NewRandom builds a Random policy with its own deterministic stream.
func NewRandom(seed uint64) *Random { return &Random{rng: sim.NewRNG(seed ^ 0x5EED5EED)} }

// Victim implements Replacer.
func (r *Random) Victim(set []WayMeta) int {
	for w := range set {
		if !set[w].Valid {
			return w
		}
	}
	return r.rng.Intn(len(set))
}

// Name implements Replacer.
func (r *Random) Name() string { return "random" }

// TwoLevelBlock is the block-level half of Baryon's two-level stage
// replacement (Fig. 8): LRU over stage frames, scanning for invalid frames
// from way 1 upward. The scan deliberately starts at 1 — way 0's staleness
// is caught by the LastUse comparison instead — reproducing the stage tag
// array's historical victim order exactly; the byte-identity goldens pin
// this behaviour. The sub-block-level half is SlotFIFO below.
type TwoLevelBlock struct{}

// Victim implements Replacer.
func (TwoLevelBlock) Victim(set []WayMeta) int {
	victim := 0
	for w := 1; w < len(set); w++ {
		if !set[w].Valid {
			return w
		}
		if set[w].LastUse < set[victim].LastUse {
			victim = w
		}
	}
	return victim
}

// Name implements Replacer.
func (TwoLevelBlock) Name() string { return "two-level" }

// SlotFIFO is the sub-block-level half of the two-level policy: it rotates
// a FIFO pointer over a frame's n slots, skipping invalid slots, and
// returns the victim slot plus the advanced pointer. valid reports whether
// a slot currently holds a live range.
func SlotFIFO(fifo uint8, n int, valid func(int) bool) (int, uint8) {
	slot := int(fifo)
	for i := 0; i < n; i++ {
		if valid(slot) {
			break
		}
		slot = (slot + 1) % n
	}
	return slot, uint8((slot + 1) % n)
}

// ReplacerByName resolves a DesignSpec replacement-policy name. The empty
// name defaults to LRU. seed feeds the random policy's stream.
func ReplacerByName(name string, seed uint64) (Replacer, bool) {
	switch name {
	case "", "lru":
		return LRU{}, true
	case "fifo":
		return FIFO{}, true
	case "random":
		return NewRandom(seed), true
	case "two-level":
		return TwoLevelBlock{}, true
	}
	return nil, false
}
