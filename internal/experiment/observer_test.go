package experiment

import (
	"sync"
	"testing"

	"baryon/internal/trace"
)

// TestRunnerObserve pins the Observe hook's contract under a parallel pool:
// every successful pair is observed exactly once, with its own result, and
// a pair that fails (here, a panicking controller) is never observed.
func TestRunnerObserve(t *testing.T) {
	registerPoisonedDesign(t, "Poisoned-Observe")
	cfg := parallelConfig()
	cfg.AccessesPerCore = 400
	w, _ := trace.ByName("505.mcf_r")
	var pairs []Pair
	for seed := uint64(1); seed <= 3; seed++ {
		cfg.Seed = seed
		pairs = append(pairs,
			Pair{Cfg: cfg, Workload: w, Design: DesignBaryon},
			Pair{Cfg: cfg, Workload: w, Design: "Poisoned-Observe"})
	}
	type key struct {
		seed   uint64
		design string
	}
	var mu sync.Mutex
	seen := map[key]uint64{} // observation count per pair
	cycles := map[key]uint64{}
	r := Runner{Workers: 4, Observe: func(p Pair, pr PairResult) {
		mu.Lock()
		defer mu.Unlock()
		k := key{p.Cfg.Seed, p.Design}
		seen[k]++
		cycles[k] = pr.Result.Cycles
	}}
	out := r.Run(pairs)
	for i, p := range pairs {
		k := key{p.Cfg.Seed, p.Design}
		if out[i].Err != nil {
			if seen[k] != 0 {
				t.Errorf("failed pair %v observed %d times", k, seen[k])
			}
			continue
		}
		if seen[k] != 1 || cycles[k] != out[i].Result.Cycles {
			t.Errorf("pair %v observed %d times with cycles %d, want once with %d",
				k, seen[k], cycles[k], out[i].Result.Cycles)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("observed %d distinct pairs, want the 3 healthy ones: %v", len(seen), seen)
	}
}
