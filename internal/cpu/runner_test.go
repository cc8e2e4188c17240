package cpu_test

import (
	"testing"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/cpu"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

func smallConfig() config.Config {
	cfg := config.Scaled()
	cfg.FastBytes = 8 << 20
	cfg.StageBytes = 256 << 10
	cfg.SlowBytes = 64 << 20
	cfg.LLCKB = 64
	cfg.AccessesPerCore = 2000
	return cfg
}

func baryonFactory(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
	specs, err := cfg.TierSpecs()
	if err != nil {
		panic(err)
	}
	return core.New(cfg, hybrid.NewKit(specs, store, stats))
}

func TestRunnerEndToEnd(t *testing.T) {
	cfg := smallConfig()
	w, ok := trace.ByName("505.mcf_r")
	if !ok {
		t.Fatal("workload missing")
	}
	r := cpu.NewRunnerSource(cfg, w, baryonFactory)
	res := r.Run()
	if res.Cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
	wantInstr := uint64(cfg.AccessesPerCore * cfg.Cores)
	if res.Instructions < wantInstr {
		t.Fatalf("instructions %d < accesses %d", res.Instructions, wantInstr)
	}
	if res.FastServeRate <= 0 || res.FastServeRate > 1 {
		t.Fatalf("serve rate %f out of range", res.FastServeRate)
	}
	if res.FastBytes == 0 || res.SlowBytes == 0 {
		t.Fatal("no device traffic recorded")
	}
	if res.EnergyPJ <= 0 {
		t.Fatal("no energy recorded")
	}
	if res.BloatFactor < 1 {
		t.Fatalf("bloat factor %f < 1 (fast traffic below useful traffic)", res.BloatFactor)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	cfg := smallConfig()
	w, _ := trace.ByName("520.omnetpp_r")
	run := func() cpu.Result {
		return cpu.NewRunnerSource(cfg, w, baryonFactory).Run()
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.FastBytes != b.FastBytes || a.Instructions != b.Instructions {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a.Cycles, b.Cycles)
	}
}

func TestRunnerAllWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep in short mode")
	}
	cfg := smallConfig()
	cfg.AccessesPerCore = 500
	for _, w := range trace.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res := cpu.NewRunnerSource(cfg, w, baryonFactory).Run()
			if res.Cycles == 0 {
				t.Fatal("no cycles")
			}
		})
	}
}

func TestWorkloadStreamsDiffer(t *testing.T) {
	// Streams must be deterministic per core and differ across cores for
	// private-copy workloads.
	w, _ := trace.ByName("505.mcf_r")
	s0a := w.NewStream(0, 4096, 1)
	s0b := w.NewStream(0, 4096, 1)
	s1 := w.NewStream(1, 4096, 1)
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		a, b, c := s0a.Next(), s0b.Next(), s1.Next()
		if a.Addr == b.Addr {
			same++
		}
		if a.Addr != c.Addr {
			diff++
		}
	}
	if same != 100 {
		t.Fatalf("same-core streams diverge: %d/100", same)
	}
	if diff < 90 {
		t.Fatalf("cross-core streams too similar: %d/100 differ", diff)
	}
}
