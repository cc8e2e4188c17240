package experiment

import (
	"testing"

	"baryon/internal/trace"
)

// TestRunPairsRegistriesNotShared enforces the registry concurrency
// contract (see sim.Stats and DESIGN.md): Runner.Run gets goroutine safety by
// giving every job its own registry, never by locking one. If two jobs ever
// shared a registry the race detector would fire on the counter increments;
// this test additionally pins the structural property that every result
// carries a distinct registry, so a future "reuse the registry across jobs"
// optimisation cannot land silently.
func TestRunPairsRegistriesNotShared(t *testing.T) {
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	pairs := make([]Pair, 0, 8)
	for i := 0; i < 4; i++ {
		pairs = append(pairs,
			Pair{Cfg: cfg, Workload: w, Design: DesignBaryon},
			Pair{Cfg: cfg, Workload: w, Design: DesignDICE})
	}
	results := Runner{}.mustRun(pairs)
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(results), len(pairs))
	}
	seen := map[any]int{}
	for i, res := range results {
		if res.Stats == nil {
			t.Fatalf("result %d has no registry", i)
		}
		if j, dup := seen[res.Stats]; dup {
			t.Fatalf("results %d and %d share a sim.Stats registry", j, i)
		}
		seen[res.Stats] = i
	}
}
