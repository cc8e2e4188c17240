package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"baryon/internal/config"
	"baryon/internal/trace"
)

// poisonedSpec returns a design that passes every load-time and spec-level
// validation but panics inside the controller factory (BlockBytes 0 divides
// by zero in the geometry math) — the shape of bug panic isolation exists
// for.
func poisonedSpec(name string) DesignSpec {
	return DesignSpec{
		Name:      name,
		Kind:      KindBaryon,
		Overrides: config.Overrides{BlockBytes: config.Ptr[uint64](0)},
	}
}

// TestPanicIsolation runs a grid with one poisoned pair and checks that the
// panic is contained to its slot while every other pair completes.
func TestPanicIsolation(t *testing.T) {
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	pairs := []Pair{
		{Cfg: cfg, Workload: w, Spec: builtin(DesignSimple)},
		{Cfg: cfg, Workload: w, Spec: poisonedSpec("Poisoned-Isolation")},
		{Cfg: cfg, Workload: w, Spec: builtin(DesignBaryon)},
	}
	out := Runner{}.Run(pairs)
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "panicked") {
		t.Fatalf("poisoned pair error = %v, want captured panic", out[1].Err)
	}
	// The boundary belongs to RunPair itself, not only to the batch.
	if _, err := RunPair(context.Background(), pairs[1]); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("RunPair on the poisoned pair: error = %v, want captured panic", err)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("healthy pair %d failed: %v", i, out[i].Err)
		}
		if out[i].Result.Cycles == 0 {
			t.Fatalf("healthy pair %d produced no result", i)
		}
	}
}

// TestRunPairErrors pins the error (not panic) contract of the validated
// single-pair entry point, RunPair.
func TestRunPairErrors(t *testing.T) {
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	if _, err := RunPair(context.Background(), Pair{Cfg: cfg, Workload: w,
		Spec: DesignSpec{Name: "No-Such-Kind", Kind: "alien"}}); err == nil {
		t.Fatal("unknown kind did not error")
	}
	// A replacement knob on a kind without one is a spec-level error.
	badKnob := DesignSpec{
		Name:   "BadKnob-Baryon",
		Kind:   KindBaryon,
		Policy: PolicySpec{Replacement: "lru"},
	}
	if _, err := RunPair(context.Background(), Pair{Cfg: cfg, Workload: w, Spec: badKnob}); err == nil ||
		!strings.Contains(err.Error(), "replacement-policy") {
		t.Fatalf("bad knob error = %v, want replacement-policy error", err)
	}
	// A pre-cancelled context refuses to run at all.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPair(done, Pair{Cfg: cfg, Workload: w, Spec: builtin(DesignSimple)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run error = %v, want context.Canceled", err)
	}
}

// TestCancellationMidSweep cancels a sweep partway through and checks the
// per-pair outcomes: pairs cut short or never started report the context's
// error, and the call returns promptly instead of finishing the grid.
func TestCancellationMidSweep(t *testing.T) {
	cfg := parallelConfig()
	cfg.AccessesPerCore = 200000 // long enough that cancellation lands mid-run
	w, _ := trace.ByName("505.mcf_r")
	var pairs []Pair
	for i := 0; i < 8; i++ {
		pairs = append(pairs, Pair{Cfg: cfg, Workload: w, Spec: builtin(DesignSimple)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out := Runner{Ctx: ctx}.Run(pairs)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled sweep still took %s", elapsed)
	}
	cancelledCount := 0
	for _, pr := range out {
		if errors.Is(pr.Err, context.Canceled) {
			cancelledCount++
		}
	}
	if cancelledCount == 0 {
		t.Fatal("no pair observed the cancellation")
	}
}

// TestLegacyRunPairsStrict pins the harnesses' strict contract: per-pair
// errors escalate to a panic rather than being silently dropped.
func TestLegacyRunPairsStrict(t *testing.T) {
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	defer func() {
		if recover() == nil {
			t.Fatal("mustRun with a poisoned pair did not panic")
		}
	}()
	Runner{}.mustRun([]Pair{{Cfg: cfg, Workload: w, Spec: poisonedSpec("Poisoned-Legacy")}})
}

// TestBreakdownHarnessesCancelled pins that the harnesses which read
// controller state (Fig3a, Fig3b, Fig4) run under the Runner's context: with
// Ctx already cancelled each stops with the context error instead of
// returning rows.
func TestBreakdownHarnessesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{Ctx: ctx}
	cfg := quickConfig()
	for name, run := range map[string]func(){
		"Fig3a": func() { Fig3a(r, cfg) },
		"Fig3b": func() { Fig3b(r, cfg) },
		"Fig4":  func() { Fig4(r, cfg) },
	} {
		err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			run()
			return nil
		}()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: got %v, want a panic wrapping context.Canceled", name, err)
		}
	}
}
