// Command perfbench is the repository's benchmark. It runs one workload —
// serial simulator batches on compressing (sim-compress) or plain
// (sim-plain) controllers, or an open-loop hit/miss load on an in-process
// baryonsimd (serve-mixed) — checks that every output is correct, and
// prints the end-to-end metrics (-trace 0) or the per-layer metrics of a
// traced run (-trace 1) as the last line of standard output:
//
//	go run . -workload sim-compress -seed 1 -seconds 30 -trace 0
//
// run.sh builds it from source and runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// endToEnd and perLayer are the metrics a -trace 0 and a -trace 1 run
// print, with their units; BENCHMARK.json declares the same lists.
var endToEnd = []struct{ name, unit string }{
	{"sim_accesses_per_s", "1/s"},
	{"alloc_bytes_per_access", "B"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
}

var perLayer = []struct{ name, unit string }{
	{"trace.next_ns", "ns"},
	{"ctrl.access_ns", "ns"},
	{"ctrl.access_p99_ns", "ns"},
	{"ctrl.calls_per_access", "count"},
	{"hier.self_ns_per_access", "ns"},
	{"setup.runner_ms", "ms"},
	{"gc.cpu_frac", "1"},
	{"prof.cpu.self_frac", "1"},
	{"prof.cache.self_frac", "1"},
	{"prof.hybrid.self_frac", "1"},
	{"prof.core.self_frac", "1"},
	{"prof.metadata.self_frac", "1"},
	{"prof.compress.self_frac", "1"},
	{"prof.pipeline.self_frac", "1"},
	{"prof.mem.self_frac", "1"},
	{"prof.datagen.self_frac", "1"},
	{"prof.trace.self_frac", "1"},
	{"prof.baselines.self_frac", "1"},
	{"prof.runtime.self_frac", "1"},
	{"sim.llc_misses_pka", "1/kacc"},
	{"sim.llc_writebacks_pka", "1/kacc"},
	{"sim.fast_bytes_pa", "B/acc"},
	{"sim.slow_bytes_pa", "B/acc"},
	{"sim.decompressions_pka", "1/kacc"},
	{"sim.cycles", "cycles"},
	{"svc.resolve_us", "us"},
	{"store.get_mem_us", "us"},
	{"store.get_disk_us", "us"},
	{"store.disk_hit_frac", "1"},
	{"svc.run_hit_us", "us"},
	{"http.hit_us", "us"},
	{"sim.run_ms", "ms"},
	{"report.encode_us", "us"},
	{"store.put_ms", "ms"},
	{"svc.simulations", "count"},
	{"svc.collapsed", "count"},
	{"admission.rejected", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"failed_frac", "1"},
	{"trace.overhead_frac", "1"},
}

var workloads = []string{"sim-compress", "sim-plain", "serve-mixed"}

// result is one run's outcome: the correctness tally, the metrics and
// free-form notes for the info line.
type result struct {
	attempted, failed int
	errs              []string
	metrics           *metricSet
	notes             map[string]any
}

func newResult() *result {
	return &result{metrics: newMetrics(), notes: make(map[string]any)}
}

// attempt counts one checked output; a false ok counts it as failed and
// keeps the first few messages for standard error.
func (r *result) attempt(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(k string, v any) { r.notes[k] = v }

// setLatency records the p-th percentile of vs as a millisecond metric.
func setLatency(m *metricSet, name string, vs []float64, p float64) {
	v, n := percentile(append([]float64(nil), vs...), p)
	if n == 0 {
		v = 0
	}
	m.set(name, v, "ms", n)
}

// med is the median of vs, or 0 when there are no samples.
func med(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit is the revision the benchmark was built from, when the build
// recorded one.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sim-compress, sim-plain or serve-mixed")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured time per run")
	traceMode := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the run's result store, profile and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || (*traceMode != 0 && *traceMode != 1) || !(*seconds > 0) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload %v, -trace 0|1 and -seconds > 0\n", workloads)
		return 2
	}
	traced := *traceMode == 1

	runDir := filepath.Join(*outDir, fmt.Sprintf("run-%d", os.Getpid()))
	storeDir := filepath.Join(runDir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	spans := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))

	// A run must end well inside the three minutes a caller allows it.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res *result
	var err error
	if *workload == "serve-mixed" {
		b := &serveBench{seed: *seed, seconds: *seconds, traced: traced, runDir: runDir, storeDir: storeDir, spans: spans}
		res, err = b.run(ctx)
	} else {
		b := &simBench{w: simWorkloads[*workload], seed: *seed, seconds: *seconds, traced: traced,
			runDir: runDir, storeDir: storeDir, spans: spans, out: stdout}
		res, err = b.run(ctx)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if traced {
		res.metrics.set("failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "1", 0)
	}
	for _, e := range res.errs {
		fmt.Fprintf(stderr, "perfbench: wrong output: %s\n", e)
	}

	want := endToEnd
	if traced {
		want = perLayer
	}
	printed := make(map[string]metric, len(want))
	// Each sampled metric's sample count and the highest percentile those
	// samples support with at least ten beyond it.
	samples := make(map[string]int)
	supported := make(map[string]float64)
	for _, w := range want {
		mt, ok := res.metrics.m[w.name]
		if !ok || mt.Unit != w.unit || math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s missing or malformed: %+v\n", w.name, mt)
			return 1
		}
		printed[w.name] = mt
		if mt.samples > 0 {
			samples[w.name] = mt.samples
			supported[w.name] = tailPercentile(mt.samples)
		}
	}

	info := map[string]any{
		"workload": *workload, "seed": *seed, "trace": *traceMode, "seconds": *seconds,
		"go": runtime.Version(), "numcpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"commit": commit(), "samples": samples, "supported_percentile": supported,
		"notes": res.notes,
	}
	line, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "info %s\n", line)
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, printed})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
