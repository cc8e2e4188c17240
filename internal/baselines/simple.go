// Package baselines implements the four designs the paper compares Baryon
// against (Section IV-A): a Simple DRAM cache (2 kB blocks, no compression,
// no sub-blocking), Unison Cache (2 kB blocks with 64 B sub-block footprint
// prediction and way prediction), DICE (a compressed, direct-mapped 64 B
// DRAM cache with a perfect way predictor, per the paper's optimistic
// setup), and Hybrid2 (flat-mode 256 B sub-blocking with a write-traffic
// commit policy, modelled as the paper frames it: Baryon's machinery with
// compression disabled and k = 0).
//
// The baseline controllers have no data-layout transformations, so they use
// the canonical store directly as their data plane and track presence and
// dirtiness for timing and traffic only. Each embeds a hybrid.Kit (engine,
// store and registry), which supplies its devices, engine, tracer sink and
// PeekLine; each constructor takes the kit as its first argument.
// experiment.FactorySpec assembles the kit. The controllers also share the
// set-associative directory (hybrid.Dir) and the replacement policies
// (hybrid.Replacer).
package baselines

import (
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// Simple is the paper's Simple DRAM cache baseline: 2 kB blocks, 4-way
// set-associative, LRU, whole-block fills and writebacks.
type Simple struct {
	hybrid.Kit

	dir   *hybrid.Dir[simpleWay]
	rep   hybrid.Replacer
	assoc int
	seq   uint64

	accesses, hits, misses, writebacks *sim.Counter
	servedFast                         *sim.Counter
	metaLatency                        uint64
}

// simpleWay is the directory payload: the Simple cache only tracks block
// dirtiness beyond the kit's tag metadata.
type simpleWay struct {
	dirty bool
}

// NewSimple builds the Simple baseline on kit with fastBlocks block frames
// at the given associativity, evicting by rep.
func NewSimple(kit hybrid.Kit, fastBlocks uint64, assoc int, rep hybrid.Replacer) *Simple {
	s := &Simple{
		Kit: kit, assoc: assoc,
		dir: hybrid.NewDir[simpleWay](fastBlocks, assoc),
		rep: rep,
		// Remap metadata lookup (on-chip remap cache path).
		metaLatency: 3,
	}
	cstats := kit.Stats().Scope("simple")
	s.accesses = cstats.Counter("accesses")
	s.hits = cstats.Counter("hits")
	s.misses = cstats.Counter("misses")
	s.writebacks = cstats.Counter("writebacks")
	s.servedFast = cstats.Counter("servedFast")
	s.Engine().CountWritebacks(s.writebacks)
	s.Engine().InstrumentLatency(cstats)
	return s
}

// Name identifies the design.
func (s *Simple) Name() string { return "Simple" }

// Access implements hybrid.Controller.
func (s *Simple) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	s.seq++
	s.accesses.Inc()
	block := addr / hybrid.BlockSize
	si := s.dir.SetIndex(block)

	if write {
		s.Store.WriteLine(addr, data)
	}

	if w := s.dir.Lookup(si, block); w >= 0 {
		s.hits.Inc()
		s.dir.Touch(si, w, s.seq)
		if write {
			s.dir.Payload(si, w).dirty = true
			s.Engine().FillFast(now, s.frameAddr(block, w), 64)
			return hybrid.Result{Done: now}
		}
		done := s.Engine().FastRead(now+s.metaLatency, s.frameAddr(block, w), 64)
		s.servedFast.Inc()
		s.Engine().ObserveFast(now, done, "hit")
		return hybrid.Result{Done: done, ServedByFast: true, Data: s.Store.Line(addr)}
	}
	s.misses.Inc()

	// Critical: the demanded line from slow memory.
	var res hybrid.Result
	if write {
		res = hybrid.Result{Done: now}
		s.Engine().WriteSlowBG(now, addr, 64)
	} else {
		done := s.Engine().SlowRead(now+s.metaLatency, addr, 64)
		s.Engine().ObserveSlow(now, done, "miss")
		res = hybrid.Result{Done: done, Data: s.Store.Line(addr)}
	}

	// Background: fill the whole 2 kB block, evicting the policy's victim.
	victim := s.dir.Victim(si, s.rep)
	way := s.dir.Payload(si, victim)
	if key, valid := s.dir.Tag(si, victim); valid && way.dirty {
		s.Engine().Writeback(now, key*hybrid.BlockSize, hybrid.BlockSize)
	}
	s.Engine().FetchSlow(now, block*hybrid.BlockSize, hybrid.BlockSize)
	s.Engine().FillFast(now, s.frameAddr(block, victim), hybrid.BlockSize)
	s.dir.Fill(si, victim, block, s.seq)
	*way = simpleWay{dirty: write}
	return res
}

func (s *Simple) frameAddr(block uint64, way int) uint64 {
	return (block%s.dir.Sets())*uint64(s.assoc)*hybrid.BlockSize + uint64(way)*hybrid.BlockSize
}
