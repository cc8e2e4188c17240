// Command experiments regenerates every table and figure of the paper's
// evaluation section. By default it runs everything; -only selects a single
// experiment and -quick shrinks the per-core access budget for a fast pass.
//
//	go run ./cmd/experiments            # full regeneration (~10-20 minutes)
//	go run ./cmd/experiments -quick     # fast pass
//	go run ./cmd/experiments -only fig9
//
// The runner is resilient: an experiment that fails is reported and skipped
// while the rest complete; SIGINT, SIGTERM or -timeout stop the current
// experiment gracefully and flush everything already rendered. The exit
// status is 0 only when every selected experiment completed.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/service"
)

func main() {
	quick := flag.Bool("quick", false, "use a reduced access budget per core")
	only := flag.String("only", "", "run a single experiment: tablei|fig3a|fig3b|fig4|fig9|fig10|fig11|fig12|fig13a-d|energy|assoc|subblock|cpack|remapcache|slowmem|llcprefetch|osvshw|ddrfidelity|taillat|resilience|cxl")
	seed := flag.Uint64("seed", 1, "simulation seed")
	common := service.RegisterFlags(flag.CommandLine,
		service.FlagTimeout|service.FlagBundleDir|service.FlagParallel,
		"overall wall-clock budget (0 = none); on expiry remaining experiments are cancelled and the exit status is non-zero")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The shared service-layer lifecycle: the runner every harness takes
	// carries the -timeout deadline, the -parallel pool size and the
	// -bundle-dir observer.
	r, cleanup, err := common.Setup(ctx, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer cleanup()
	ctx = r.Ctx

	cfg := config.Scaled()
	cfg.Seed = *seed
	if *quick {
		cfg.AccessesPerCore = 8000
	}

	type exp struct {
		name string
		run  func() *experiment.Table
	}
	experiments := []exp{
		{"tablei", func() *experiment.Table { return experiment.TableI() }},
		{"fig3a", func() *experiment.Table { _, t := experiment.Fig3a(r, cfg); return t }},
		{"fig3b", func() *experiment.Table { _, t := experiment.Fig3b(r, cfg); return t }},
		{"fig4", func() *experiment.Table { _, t := experiment.Fig4(r, cfg); return t }},
		{"fig9", func() *experiment.Table { _, t := experiment.Fig9(r, cfg); return t }},
		{"fig10", func() *experiment.Table { _, t := experiment.Fig10(r, cfg); return t }},
		{"fig11", func() *experiment.Table { _, t := experiment.Fig11(r, cfg); return t }},
		{"fig12", func() *experiment.Table { _, t := experiment.Fig12(r, cfg); return t }},
		{"fig13a", func() *experiment.Table { _, t := experiment.Fig13a(r, cfg); return t }},
		{"fig13b", func() *experiment.Table { _, t := experiment.Fig13b(r, cfg); return t }},
		{"fig13c", func() *experiment.Table { _, t := experiment.Fig13c(r, cfg); return t }},
		{"fig13d", func() *experiment.Table { _, t := experiment.Fig13d(r, cfg); return t }},
		{"energy", func() *experiment.Table { _, t := experiment.Energy(r, cfg); return t }},
		{"assoc", func() *experiment.Table { _, t := experiment.AssocSweep(r, cfg); return t }},
		{"subblock", func() *experiment.Table { _, t := experiment.SubBlockSweep(r, cfg); return t }},
		{"cpack", func() *experiment.Table { _, t := experiment.CompressorComparison(r, cfg); return t }},
		{"remapcache", func() *experiment.Table { _, t := experiment.RemapCacheSweep(r, cfg); return t }},
		{"slowmem", func() *experiment.Table { _, t := experiment.SlowMemSweep(r, cfg); return t }},
		{"llcprefetch", func() *experiment.Table { _, t := experiment.PrefetchAblation(r, cfg); return t }},
		{"osvshw", func() *experiment.Table { _, t := experiment.OSvsHW(r, cfg); return t }},
		{"ddrfidelity", func() *experiment.Table { _, t := experiment.DDRFidelitySweep(r, cfg); return t }},
		{"taillat", func() *experiment.Table { return experiment.TailLatency(r, cfg) }},
		{"resilience", func() *experiment.Table { _, t := experiment.Resilience(r, cfg); return t }},
		{"cxl", func() *experiment.Table { _, t := experiment.CXLSweep(r, cfg); return t }},
	}

	// Buffer stdout and check the flush: a deferred or implicit flush would
	// silently drop tables on a full disk or broken pipe.
	out := bufio.NewWriter(os.Stdout)
	ran, failed, skipped := 0, 0, 0
	for _, e := range experiments {
		if *only != "" && e.name != *only {
			continue
		}
		if ctx.Err() != nil {
			skipped++
			continue
		}
		start := time.Now()
		table, err := runIsolated(e.run)
		if err != nil {
			// A cancelled run surfaces as a panic from the strict
			// harnesses; classify it by the context state.
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "[%s cancelled after %.1fs]\n", e.name, time.Since(start).Seconds())
				skipped++
				continue
			}
			failed++
			fmt.Fprintf(os.Stderr, "[%s FAILED after %.1fs: %s]\n",
				e.name, time.Since(start).Seconds(), firstLine(err.Error()))
			continue
		}
		table.Render(out)
		if err := out.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", e.name, time.Since(start).Seconds())
		ran++
	}
	if ran+failed+skipped == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "experiments: %d ok, %d failed, %d cancelled\n", ran, failed, skipped)
	if failed > 0 || skipped > 0 || ctx.Err() != nil {
		os.Exit(1)
	}
}

// runIsolated runs one experiment harness behind a panic boundary so a bad
// run (or a cancelled one escalating through the strict harnesses) fails
// only that experiment.
func runIsolated(run func() *experiment.Table) (t *experiment.Table, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%v", rec)
		}
	}()
	return run(), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
