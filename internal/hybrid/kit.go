package hybrid

import (
	"baryon/internal/mem"
	"baryon/internal/obs"
	"baryon/internal/sim"
)

// Kit is what every controller is built on: the migration/writeback engine
// over the run's memory tiers, the canonical store and the run's metric
// registry. Controllers embed it, so the engine-kit methods below are
// implemented once here and promoted to each of them.
type Kit struct {
	eng   *Engine
	stats *sim.Stats

	// Store holds the canonical content of every OS block.
	Store *Store
}

// NewKit builds the engine over the ordered tier list (config.TierSpecs
// resolves one from a configuration) and bundles it with the store and the
// registry that receives every counter.
func NewKit(tiers []TierSpec, store *Store, stats *sim.Stats) Kit {
	return Kit{eng: NewEngine(tiers, stats), stats: stats, Store: store}
}

// Engine returns the shared migration/writeback engine (EngineProvider).
func (k Kit) Engine() *Engine { return k.eng }

// Stats returns the run's metric registry.
func (k Kit) Stats() *sim.Stats { return k.stats }

// FastDevice returns the near-tier (tier 0) device model.
func (k Kit) FastDevice() *mem.Device { return k.eng.Fast() }

// SlowDevice returns the first far-tier (tier 1) device model.
func (k Kit) SlowDevice() *mem.Device { return k.eng.Slow() }

// SetTracer attaches a request-lifecycle tracer to the engine and every
// tier device. Nil detaches.
func (k Kit) SetTracer(t *obs.Tracer) { k.eng.SetTracer(t) }

// PeekLine implements DataPeeker for controllers whose data plane is the
// store itself (the store is always current).
func (k Kit) PeekLine(addr uint64) []byte { return k.Store.Line(addr) }
