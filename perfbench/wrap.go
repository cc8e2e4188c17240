package main

import (
	"fmt"
	"time"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/hybrid"
	"baryon/internal/mem"
	"baryon/internal/obs"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// spanEvery is the sampling interval of per-call spans: one call in
// spanEvery is written to the span log, while every call is timed into the
// layer's duration sum and histogram.
const spanEvery = 1024

// callTimer times every call into one wrapped layer.
type callTimer struct {
	name  string
	calls uint64
	total time.Duration
	hist  durHist

	log         *spanLog
	parent, req uint64 // span context of the run the calls belong to
}

func (t *callTimer) observe(start time.Time) {
	end := time.Now()
	d := end.Sub(start)
	t.calls++
	t.total += d
	t.hist.add(uint64(d))
	if t.log != nil && t.calls%spanEvery == 1 {
		t.log.add(span{Parent: t.parent, Req: t.req, Name: t.name,
			Start: t.log.since(start), End: t.log.since(end)})
	}
}

// timedStreamer times Streamer.Next.
type timedStreamer struct {
	inner trace.Streamer
	t     *callTimer
}

func (s *timedStreamer) Next() trace.Access {
	start := time.Now()
	a := s.inner.Next()
	s.t.observe(start)
	return a
}

// timedSource wraps a trace.Source so every stream it hands out is timed.
type timedSource struct {
	trace.Source
	t *callTimer
}

func (s timedSource) Streams(cores int, fastBlocks uint64, seed uint64) []trace.Streamer {
	in := s.Source.Streams(cores, fastBlocks, seed)
	out := make([]trace.Streamer, len(in))
	for i, st := range in {
		out[i] = &timedStreamer{inner: st, t: s.t}
	}
	return out
}

// The optional controller interfaces the runner and the cache hierarchy
// probe for. A wrapper must implement exactly the subset its inner
// controller implements, or the run takes a different path.
const (
	ifDevice = 1 << iota
	ifEngine
	ifTracer
	ifInstr
	ifRangeCF
	ifRemapRate
)

// ifaceMask reports which optional interfaces c implements.
func ifaceMask(c hybrid.Controller) int {
	m := 0
	if _, ok := c.(cpu.DeviceProvider); ok {
		m |= ifDevice
	}
	if _, ok := c.(hybrid.EngineProvider); ok {
		m |= ifEngine
	}
	if _, ok := c.(obs.TracerSink); ok {
		m |= ifTracer
	}
	if _, ok := c.(hybrid.InstructionSink); ok {
		m |= ifInstr
	}
	if _, ok := c.(cpu.MeanRangeCFProvider); ok {
		m |= ifRangeCF
	}
	if _, ok := c.(cpu.RemapCacheHitRateProvider); ok {
		m |= ifRemapRate
	}
	return m
}

// timedCtrl times Controller.Access and forwards no optional interface.
type timedCtrl struct {
	inner hybrid.Controller
	t     *callTimer
}

func (c *timedCtrl) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	start := time.Now()
	r := c.inner.Access(now, addr, write, data)
	c.t.observe(start)
	return r
}

func (c *timedCtrl) Stats() *sim.Stats { return c.inner.Stats() }
func (c *timedCtrl) Name() string      { return c.inner.Name() }

// kitController is a controller built on the shared engine: devices,
// engine and tracer sink (every baseline).
type kitController interface {
	hybrid.Controller
	cpu.DeviceProvider
	hybrid.EngineProvider
	obs.TracerSink
}

// timedKitCtrl forwards the engine-kit interfaces.
type timedKitCtrl struct {
	timedCtrl
	kit kitController
}

func (c *timedKitCtrl) FastDevice() *mem.Device  { return c.kit.FastDevice() }
func (c *timedKitCtrl) SlowDevice() *mem.Device  { return c.kit.SlowDevice() }
func (c *timedKitCtrl) Engine() *hybrid.Engine   { return c.kit.Engine() }
func (c *timedKitCtrl) SetTracer(tr *obs.Tracer) { c.kit.SetTracer(tr) }

// coreController adds the Baryon core's instruction clock and its
// compression and remap-cache reports (Baryon variants and Hybrid2).
type coreController interface {
	kitController
	hybrid.InstructionSink
	cpu.MeanRangeCFProvider
	cpu.RemapCacheHitRateProvider
}

// timedCoreCtrl forwards every optional interface.
type timedCoreCtrl struct {
	timedKitCtrl
	core coreController
}

func (c *timedCoreCtrl) AddInstructions(n uint64)   { c.core.AddInstructions(n) }
func (c *timedCoreCtrl) MeanRangeCF() float64       { return c.core.MeanRangeCF() }
func (c *timedCoreCtrl) RemapCacheHitRate() float64 { return c.core.RemapCacheHitRate() }

const (
	kitMask  = ifDevice | ifEngine | ifTracer
	coreMask = kitMask | ifInstr | ifRangeCF | ifRemapRate
)

// wrapController returns a timing wrapper implementing exactly the optional
// interfaces inner implements. A controller with another interface set is
// a new kind this benchmark does not know how to wrap faithfully.
func wrapController(inner hybrid.Controller, t *callTimer) (hybrid.Controller, error) {
	base := timedCtrl{inner: inner, t: t}
	switch ifaceMask(inner) {
	case 0:
		return &base, nil
	case kitMask:
		return &timedKitCtrl{timedCtrl: base, kit: inner.(kitController)}, nil
	case coreMask:
		core := inner.(coreController)
		return &timedCoreCtrl{timedKitCtrl: timedKitCtrl{timedCtrl: base, kit: core}, core: core}, nil
	}
	return nil, fmt.Errorf("perfbench: controller %s implements optional interface set %#x, which no wrapper covers",
		inner.Name(), ifaceMask(inner))
}

// timedFactory wraps every controller factory builds.
func timedFactory(factory cpu.ControllerFactory, t *callTimer) cpu.ControllerFactory {
	return func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
		c, err := wrapController(factory(cfg, store, stats), t)
		if err != nil {
			panic(err)
		}
		return c
	}
}
