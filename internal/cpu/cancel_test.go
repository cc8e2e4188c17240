package cpu_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"baryon/internal/cpu"
	"baryon/internal/trace"
)

// TestRunCtxBackgroundIdentity pins that RunCtx with an uncancellable
// context is bit-identical to Run: the cancellation support must be free
// when unused.
func TestRunCtxBackgroundIdentity(t *testing.T) {
	cfg := smallConfig()
	w, _ := trace.ByName("505.mcf_r")
	plain := cpu.NewRunnerSource(cfg, w, baryonFactory).Run()
	viaCtx, err := cpu.NewRunnerSource(cfg, w, baryonFactory).RunCtx(context.Background())
	if err != nil {
		t.Fatalf("RunCtx(Background) returned error: %v", err)
	}
	if plain.Stats.String() != viaCtx.Stats.String() {
		t.Fatal("RunCtx(Background) diverged from Run")
	}
}

// TestRunCtxCancelStopsEarly cancels a long run mid-flight and checks that
// RunCtx returns promptly with the context error and partial metrics.
func TestRunCtxCancelStopsEarly(t *testing.T) {
	cfg := smallConfig()
	cfg.AccessesPerCore = 2_000_000
	w, _ := trace.ByName("505.mcf_r")
	r := cpu.NewRunnerSource(cfg, w, baryonFactory)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := r.RunCtx(ctx)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run still took %s", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	total := res.Warmup.Accesses + res.Measured.Accesses
	if total == 0 {
		t.Fatal("cancelled run reports no partial progress")
	}
	if total >= uint64(cfg.Cores)*uint64(cfg.AccessesPerCore) {
		t.Fatal("run completed despite cancellation")
	}
}
