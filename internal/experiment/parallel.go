package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/obs"
	"baryon/internal/trace"
)

// The harnesses in this package regenerate the paper's evaluation from large
// cartesian products of fully independent (config, workload, design)
// simulations. This file is the execution engine they all share: a worker
// pool that fans the runs out across cores while keeping the output
// deterministic — every result is slotted by its input index, so tables and
// figures are byte-identical to a serial run regardless of completion order.

// Runner is the explicit execution context of a batch: the context that
// cancels it, the worker count and the export hook. Every harness takes one
// as its first argument; the zero value runs under context.Background() on
// runtime.GOMAXPROCS(0) workers with no observer.
type Runner struct {
	// Ctx cancels the batch: workers stop taking new pairs and running
	// pairs stop within ~1024 accesses. nil means context.Background().
	Ctx context.Context
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0) and 1
	// forces fully serial execution.
	Workers int
	// Observe, when non-nil, receives every successfully completed pair of
	// Run as it finishes, before the batch returns — the seam export layers
	// (e.g. per-run report bundles) use to see each cpu.Result while its
	// Stats registry is still reachable. It runs on worker goroutines,
	// possibly concurrently, and must be goroutine-safe.
	Observe func(Pair, PairResult)
}

// fanOut runs job(ctx, i) for every i in [0, n) on r's workers and returns
// each index's error. Workers stop taking new indices once ctx is
// cancelled; indices never started get ctx's error. job must write its
// outputs to slots indexed by i only; under that contract the observable
// result is identical to the serial loop, which is what one worker (or one
// job) runs, with zero goroutine overhead.
func (r Runner) fanOut(n int, job func(ctx context.Context, i int) error) []error {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	started := make([]bool, n)
	work := func(i int) {
		started[i] = true
		errs[i] = job(ctx, i)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			work(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					work(i)
				}
			}()
		}
		wg.Wait()
	}
	for i := range errs {
		if !started[i] {
			errs[i] = ctx.Err()
		}
	}
	return errs
}

// Run executes every pair on r's workers and returns per-pair outcomes in
// input order. Each pair builds its own runner, store, controller and
// statistics, so pairs share no mutable state; successful slots are
// bit-identical to calling RunPair in a loop. A pair that fails — invalid
// design, panic, cancellation — reports through its slot's Err while every
// other pair completes; pairs not yet started when Ctx is cancelled get
// its error without running.
func (r Runner) Run(pairs []Pair) []PairResult {
	out := make([]PairResult, len(pairs))
	errs := r.fanOut(len(pairs), func(ctx context.Context, i int) error {
		out[i].Result, out[i].Err = RunPair(ctx, pairs[i])
		if out[i].Err == nil && r.Observe != nil {
			r.Observe(pairs[i], out[i])
		}
		return out[i].Err
	})
	for i, err := range errs {
		out[i].Err = err
	}
	return out
}

// The harnesses are strict: the first failed pair in input order —
// including one cut short by cancellation — panics, and the resilient
// commands catch the panic at their per-harness isolation boundary. The
// panic value is an error wrapping the pair's error, so callers can match
// context.Canceled with errors.Is.
func mustPass(p Pair, err error) {
	if err != nil {
		panic(fmt.Errorf("experiment: pair %s/%s failed: %w", p.Workload.Name, p.Design, err))
	}
}

// mustRun is Run under the strict harness contract: the results in input
// order, or a panic on the first failed pair.
func (r Runner) mustRun(pairs []Pair) []cpu.Result {
	res := make([]cpu.Result, len(pairs))
	for i, pr := range r.Run(pairs) {
		mustPass(pairs[i], pr.Err)
		res[i] = pr.Result
	}
	return res
}

// mustEach is fanOut over pairs under the strict harness contract, for
// harnesses that read controller state beyond cpu.Result (see runPair's
// before hook). Such runs are not observed.
func (r Runner) mustEach(pairs []Pair, job func(ctx context.Context, i int) error) {
	for i, err := range r.fanOut(len(pairs), job) {
		mustPass(pairs[i], err)
	}
}

// runGrid runs the full workloads x designs grid under cfg and returns
// results indexed as [workload][design], matching the input slices. Like
// mustRun it is strict.
func (r Runner) runGrid(cfg config.Config, workloads []trace.Workload, designs []string) [][]cpu.Result {
	pairs := make([]Pair, 0, len(workloads)*len(designs))
	for _, w := range workloads {
		for _, d := range designs {
			pairs = append(pairs, Pair{Cfg: cfg, Workload: w, Design: d})
		}
	}
	flat := r.mustRun(pairs)
	out := make([][]cpu.Result, len(workloads))
	for wi := range workloads {
		out[wi] = flat[wi*len(designs) : (wi+1)*len(designs)]
	}
	return out
}

// RunObs optionally attaches live instrumentation to one pair's runner —
// the seam the service layer and cmd/baryonsim use to stream status and
// request lifecycles out of a run without touching its registry.
type RunObs struct {
	// Tracer samples request lifecycles into a ring buffer (obs.Tracer).
	Tracer *obs.Tracer
	// Introspector receives RunStatus snapshots from the run goroutine.
	Introspector *obs.Introspector
	// StatusEvery is the introspector publish interval in accesses
	// (0 = the runner's default).
	StatusEvery uint64
}

// Pair is one independent simulation job: a full configuration (so sweeps
// can mutate per-job copies), a workload and a design name.
type Pair struct {
	Cfg      config.Config
	Workload trace.Workload
	Design   string
	// Source optionally replaces the workload's synthetic generator with a
	// recorded access stream (e.g. cmd/baryonsim -trace-file); Workload
	// still names the run and supplies the value mix.
	Source trace.Source
	// Obs optionally attaches live instrumentation to this pair's runner.
	Obs *RunObs
}

// PairResult is the outcome of one job in a batch: the metrics on success,
// or the error that stopped the job — a bad spec, a panic captured by
// RunPair's isolation boundary, or the run context's cancellation error for
// jobs that were cut short or never started.
type PairResult struct {
	Result cpu.Result
	Err    error
}

// RunPair executes one fully-described pair — including its optional trace
// source and live instrumentation — with error reporting, cooperative
// cancellation and a panic boundary. An unknown design or an invalid spec
// returns an error; a panicking controller or workload returns an error
// naming the pair, with the stack; a cancelled ctx stops the replay and
// returns the partial metrics with ctx's error.
func RunPair(ctx context.Context, p Pair) (cpu.Result, error) {
	return runPair(ctx, p, nil)
}

// runPair is RunPair with a hook: before, when non-nil, sees the built
// runner ahead of the replay, so a harness can instrument its controller or
// keep it to read state the Result does not carry.
func runPair(ctx context.Context, p Pair, before func(*cpu.Runner)) (res cpu.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("experiment: %s/%s panicked: %v\n%s",
				p.Workload.Name, p.Design, rec, debug.Stack())
		}
	}()
	spec, ok := Lookup(p.Design)
	if !ok {
		return cpu.Result{}, UnknownDesignError(p.Design)
	}
	if err := ValidateSpec(spec, p.Cfg); err != nil {
		return cpu.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return cpu.Result{}, err
	}
	var r *cpu.Runner
	if p.Source != nil {
		r = cpu.NewRunnerSource(p.Cfg, p.Source, FactorySpec(spec))
	} else {
		r = cpu.NewRunner(p.Cfg, p.Workload, FactorySpec(spec))
	}
	if o := p.Obs; o != nil {
		if o.Tracer != nil {
			r.SetTracer(o.Tracer)
		}
		if o.Introspector != nil {
			r.SetIntrospector(o.Introspector, o.StatusEvery)
		}
	}
	if before != nil {
		before(r)
	}
	res, err = r.RunCtx(ctx)
	res.Design = p.Design
	return res, err
}
