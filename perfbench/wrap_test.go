package main

import (
	"context"
	"testing"

	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/hybrid"
	"baryon/internal/mem"
	"baryon/internal/service"
	"baryon/internal/sim"
)

// TestWrapperFidelity runs every design of both sim workloads with and
// without the timing wrappers. The wrapped controller must implement the
// same optional interfaces as the one it wraps, and the traced run must
// produce the untraced run's bundle byte for byte.
func TestWrapperFidelity(t *testing.T) {
	svc, err := service.New(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim-compress", "sim-plain"} {
		w := simWorkloads[name]
		for _, d := range w.designs {
			for ti, tr := range w.traces {
				r, err := svc.Resolve(service.Job{Design: d, Workload: tr, Seed: uint64(ti + 1), Accesses: 300})
				if err != nil {
					t.Fatal(err)
				}
				if ti == 0 {
					inner := experiment.FactorySpec(r.Spec)(r.Cfg, hybrid.NewStore(func(hybrid.BlockID, *[hybrid.BlockSize]byte) {}), sim.NewStats())
					wrapped, err := wrapController(inner, &callTimer{})
					if err != nil {
						t.Fatalf("%s: %v", d, err)
					}
					if got, want := ifaceMask(wrapped), ifaceMask(inner); got != want {
						t.Errorf("%s: wrapper implements interface set %#x, controller %#x", d, got, want)
					}
				}
				plain, err := simulate(context.Background(), r, nil, nil, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				lt := newLayerTimers(newSpanLog())
				traced, err := simulate(context.Background(), r, lt, nil, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				if traced.digest != plain.digest {
					t.Errorf("%s/%s: traced bundle %s, untraced %s", d, tr, traced.digest, plain.digest)
				}
				if lt.src.calls != plain.res.Measured.Accesses || lt.ctrl.calls == 0 {
					t.Errorf("%s/%s: timed %d Next calls for %d accesses and %d controller calls",
						d, tr, lt.src.calls, plain.res.Measured.Accesses, lt.ctrl.calls)
				}
			}
		}
	}
}

// devOnly implements one optional interface without the rest of the
// engine kit, a combination no wrapper covers.
type devOnly struct{ hybrid.Controller }

func (devOnly) Name() string            { return "devOnly" }
func (devOnly) FastDevice() *mem.Device { return nil }
func (devOnly) SlowDevice() *mem.Device { return nil }

func TestWrapControllerRefusesUnknownSets(t *testing.T) {
	var c hybrid.Controller = devOnly{}
	if _, ok := c.(cpu.DeviceProvider); !ok {
		t.Fatal("devOnly must be a DeviceProvider")
	}
	if _, err := wrapController(c, &callTimer{}); err == nil {
		t.Error("wrapController wrapped a controller whose interface set no wrapper covers")
	}
}
