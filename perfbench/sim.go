package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/report"
	"baryon/internal/service"
	"baryon/internal/trace"
)

// simWorkload is a serial batch of cold-start pair runs.
type simWorkload struct {
	designs []string
	traces  []string
}

// simTraces span the data the controllers see: pointer-heavy (mcf),
// incompressible and write-heavy streaming (lbm), a large-footprint graph
// (pr.twi) and read-mostly, zero-heavy key-value (YCSB-B).
var simTraces = []string{"505.mcf_r", "519.lbm_r", "pr.twi", "YCSB-B"}

var simWorkloads = map[string]simWorkload{
	// Every access below the LLC goes through a compressing controller.
	"sim-compress": {designs: []string{"Baryon", "Baryon-FA", "Baryon-CXL", "DICE"}, traces: simTraces},
	// The same traces without compression.
	"sim-plain": {designs: []string{"UnisonCache", "Simple", "Hybrid2"}, traces: simTraces},
}

// simAccessesPerCore is the per-core access budget of one sim pair.
const simAccessesPerCore = 2000

// splitmix is the SplitMix64 finalizer, used to derive input seeds from the
// workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// pairJobs returns the workload's pair list for seed: every design on every
// trace, each trace with its own seed derived from the workload seed and
// shared by all designs so they replay the same accesses.
func (w simWorkload) pairJobs(seed uint64) []service.Job {
	var jobs []service.Job
	for _, d := range w.designs {
		for ti, t := range w.traces {
			jobs = append(jobs, service.Job{
				Design:   d,
				Workload: t,
				Seed:     splitmix(seed<<8|uint64(ti)) % 1_000_000_007,
				Accesses: simAccessesPerCore,
			})
		}
	}
	return jobs
}

// heapAllocBytes reads the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerTimers time the trace and controller layers of traced pair runs.
type layerTimers struct {
	src, ctrl callTimer
}

func newLayerTimers(log *spanLog) *layerTimers {
	return &layerTimers{
		src:  callTimer{name: "trace.next", log: log},
		ctrl: callTimer{name: "ctrl.access", log: log},
	}
}

// pairRun is one cold-start simulation of a resolved job.
type pairRun struct {
	res    cpu.Result
	bundle []byte
	digest string

	setup, run, encode time.Duration
	allocBytes         uint64
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// simulate builds a runner for r, runs it and encodes its canonical bundle:
// the path baryonsimd takes on a miss, minus the store. With lt set the
// trace source and the controller are timed and spans are recorded under
// parent in request req.
func simulate(ctx context.Context, r service.Resolved, lt *layerTimers, log *spanLog, req, parent uint64) (pairRun, error) {
	var src trace.Source = r.W
	factory := experiment.FactorySpec(r.Spec)
	if lt != nil {
		src = timedSource{Source: r.W, t: &lt.src}
		factory = timedFactory(factory, &lt.ctrl)
	}
	var p pairRun
	a0 := heapAllocBytes()
	id, t0 := log.begin()
	runner := cpu.NewRunnerSource(r.Cfg, src, factory)
	p.setup = log.end(id, parent, req, "runner.new", t0)

	id, t0 = log.begin()
	if lt != nil {
		lt.src.parent, lt.src.req = id, req
		lt.ctrl.parent, lt.ctrl.req = id, req
	}
	res, err := runner.RunCtx(ctx)
	p.run = log.end(id, parent, req, "runner.run", t0)
	p.allocBytes = heapAllocBytes() - a0
	if err != nil {
		return p, fmt.Errorf("%s/%s: %w", r.Job.Design, r.Job.Workload, err)
	}
	res.Design = r.Job.Design
	p.res = res

	id, t0 = log.begin()
	b, err := report.New(r.Key, res)
	if err == nil {
		p.bundle, err = b.MarshalCanonical()
	}
	p.encode = log.end(id, parent, req, "report.encode", t0)
	if err != nil {
		return p, fmt.Errorf("%s/%s: encoding bundle: %w", r.Job.Design, r.Job.Workload, err)
	}
	p.digest = digestOf(p.bundle)
	return p, nil
}

// simCounts are the simulated totals of a set of runs. They are exact: a
// change that only speeds the simulator up must leave them identical.
type simCounts struct {
	accesses, llcMisses, llcWritebacks uint64
	fastBytes, slowBytes               uint64
	decompressions, cycles             uint64
}

func (c *simCounts) add(res cpu.Result) {
	c.accesses += res.Measured.Accesses
	c.llcMisses += res.Stats.Get("hierarchy.llcMisses")
	c.llcWritebacks += res.Stats.Get("hierarchy.llcWritebacks")
	c.fastBytes += res.FastBytes
	c.slowBytes += res.SlowBytes
	c.decompressions += res.Stats.Get("baryon.decompressions") + res.Stats.Get("dice.decompressions")
	c.cycles += res.Cycles
}

func (c simCounts) report(ms *metricSet) {
	per := func(v uint64, scale float64) float64 { return float64(v) * scale / float64(c.accesses) }
	ms.set("sim.llc_misses_pka", per(c.llcMisses, 1000), "1/kacc", 0)
	ms.set("sim.llc_writebacks_pka", per(c.llcWritebacks, 1000), "1/kacc", 0)
	ms.set("sim.fast_bytes_pa", per(c.fastBytes, 1), "B/acc", 0)
	ms.set("sim.slow_bytes_pa", per(c.slowBytes, 1), "B/acc", 0)
	ms.set("sim.decompressions_pka", per(c.decompressions, 1000), "1/kacc", 0)
	ms.set("sim.cycles", float64(c.cycles), "cycles", 0)
}

// passStats aggregates one pass over a workload's pairs.
type passStats struct {
	accesses   uint64
	run, setup time.Duration
	allocBytes uint64
	counts     simCounts
}

func (p *passStats) add(pr pairRun) {
	p.accesses += pr.res.Measured.Accesses
	p.run += pr.run
	p.setup += pr.setup
	p.allocBytes += pr.allocBytes
	p.counts.add(pr.res)
}

// simBench runs a sim workload: one warm-up pass that stores every pair's
// bundle in a disk-backed result store, then measured passes until the
// time budget is spent. Each measured pair is simulated again (a miss) and
// then requested from the service (a hit served from the store); both must
// return the warm-up bundle byte for byte. In a traced run, untraced and
// traced passes alternate, so the traced run also measures the tracing
// overhead and checks that tracing changes no bundle.
type simBench struct {
	w        simWorkload
	seed     uint64
	seconds  float64
	traced   bool
	runDir   string    // profile
	storeDir string    // result store
	spans    string    // span log path
	out      io.Writer // digest lines
}

func (b *simBench) run(ctx context.Context) (*result, error) {
	jobs := b.w.pairJobs(b.seed)
	svc, err := service.New(service.Options{
		Workers: 1,
		// Smaller than the pair set, so hits are verified disk reads.
		CacheEntries: len(jobs) / 4,
		CacheDir:     b.storeDir,
		Log:          io.Discard,
	})
	if err != nil {
		return nil, err
	}
	resolved := make([]service.Resolved, len(jobs))
	for i, j := range jobs {
		if resolved[i], err = svc.Resolve(j); err != nil {
			return nil, err
		}
	}

	var log *spanLog
	var lt *layerTimers
	if b.traced {
		log = newSpanLog()
		lt = newLayerTimers(log)
	}
	out := newResult()
	reqID := uint64(0)

	// Warm-up pass: the reference bundles, stored for the hit path.
	var ss svcSamples
	ref := make([]string, len(jobs))
	var refCounts simCounts
	for i, r := range resolved {
		pr, err := simulate(ctx, r, nil, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		ref[i] = pr.digest
		refCounts.add(pr.res)
		t0 := time.Now()
		svc.Cache().Put(r.Hash, pr.bundle)
		ss.putMS = append(ss.putMS, ms(time.Since(t0)))
		fmt.Fprintf(b.out, "digest %s %s seed=%d %s\n", r.Job.Design, r.Job.Workload, r.Job.Seed, pr.digest)
	}

	var plain, traced []passStats
	plainBest, tracedBest := newBestRuns(), newBestRuns()
	var missMS, hitMS []float64
	cs0 := svc.Cache().Stats()
	snap0 := svc.MetricsSnapshot()
	var prof *cpuProfile
	if b.traced {
		prof = newCPUProfile(b.runDir)
	}
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < b.seconds || len(plain) == 0 || (b.traced && len(traced) == 0); pass++ {
		tracing := b.traced && pass%2 == 1
		if !tracing {
			if err := prof.resume(); err != nil {
				return nil, err
			}
		}
		var ps passStats
		for i, r := range resolved {
			reqID++
			plt, plog := (*layerTimers)(nil), (*spanLog)(nil)
			if tracing {
				plt, plog = lt, log
			}
			rootID, rootStart := plog.begin()
			t0 := time.Now()
			pr, err := simulate(ctx, r, plt, plog, reqID, rootID)
			missMS = append(missMS, ms(time.Since(t0)))
			out.attempt(err == nil && pr.digest == ref[i], "%s/%s seed=%d: fresh bundle %s, reference %s (err %v)",
				r.Job.Design, r.Job.Workload, r.Job.Seed, pr.digest, ref[i], err)
			if err != nil {
				continue
			}
			ps.add(pr)
			if !tracing {
				plainBest.observe(i, pr.res.Measured.Accesses, pr.run)
			} else {
				tracedBest.observe(i, pr.res.Measured.Accesses, pr.run)
				ss.encodeUS = append(ss.encodeUS, float64(pr.encode.Microseconds()))
				ss.simRunMS = append(ss.simRunMS, ms(pr.run))
				ss.timeResolve(svc, r.Job, plog, reqID, rootID)
				// Another pair's bundle is not in the LRU, so this read
				// goes to disk.
				ss.timeGet(svc, resolved[(i+len(resolved)/2)%len(resolved)].Hash, plog, reqID, rootID)
			}

			id, t1 := plog.begin()
			o, err := svc.Run(ctx, r.Job)
			d := plog.end(id, rootID, reqID, "svc.run", t1)
			hitMS = append(hitMS, ms(d))
			if tracing {
				ss.runHitUS = append(ss.runHitUS, float64(d.Nanoseconds())/1e3)
			}
			out.attempt(err == nil && o.CacheHit && bytes.Equal(o.Bundle, pr.bundle),
				"%s/%s seed=%d: served bundle differs from the fresh one (hit %v, err %v)",
				r.Job.Design, r.Job.Workload, r.Job.Seed, o.CacheHit, err)
			if tracing {
				// The hit just loaded this bundle into the LRU.
				ss.timeGet(svc, r.Hash, plog, reqID, rootID)
			}
			plog.end(rootID, 0, reqID, "pair", rootStart)
		}
		if tracing {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
			if err := prof.pause(); err != nil {
				return nil, err
			}
		}
	}
	elapsed := time.Since(start)

	m := out.metrics
	allocs := make([]float64, len(plain))
	setups := make([]float64, len(plain))
	for i, p := range plain {
		allocs[i] = float64(p.allocBytes) / float64(p.accesses)
		setups[i] = p.setup.Seconds()
	}
	m.set("sim_accesses_per_s", plainBest.throughput(), "1/s", len(plain))
	m.set("alloc_bytes_per_access", median(allocs), "B", len(allocs))
	m.set("setup_s", median(setups), "s", len(setups))
	m.set("peak_rss_mb", peakRSSMB(), "MB", 0)
	setLatency(m, "hit_p50_ms", hitMS, 50)
	setLatency(m, "miss_p50_ms", missMS, 50)
	out.note("passes", len(plain)+len(traced))
	out.note("measured_s", elapsed.Seconds())
	checkStore(out, svc)
	if !b.traced {
		return out, nil
	}

	layers, err := prof.layers()
	if err != nil {
		return nil, err
	}
	var trun, tsetup time.Duration
	for _, p := range traced {
		trun += p.run
		tsetup += p.setup
		out.attempt(p.counts == refCounts, "traced pass simulated counts %+v differ from the untraced reference %+v", p.counts, refCounts)
	}
	simLayers(m, lt, trun, tsetup, len(traced)*len(resolved), layers)
	refCounts.report(m)
	m.set("trace.overhead_frac", 1-tracedBest.throughput()/plainBest.throughput(), "1", len(traced))
	m.set("gc.cpu_frac", prof.gcFrac(), "1", 0)
	ss.report(m, cs0, svc.Cache().Stats(), snap0, svc.MetricsSnapshot())
	setLatency(m, "hit_p99_ms", hitMS, 99)
	setLatency(m, "miss_p90_ms", missMS, 90)
	// No HTTP server or load generator runs on the sim workloads.
	m.set("http.hit_us", 0, "us", 0)
	m.set("loadgen.lag_p99_ms", 0, "ms", 0)
	return out, log.write(b.spans)
}

// simLayers sets the simulator's per-layer metrics from the timers of
// traced runs that spent run inside RunCtx and setup building n runners.
func simLayers(m *metricSet, lt *layerTimers, run, setup time.Duration, n int, layers map[string]float64) {
	acc := float64(lt.src.calls) // one Streamer.Next per simulated access
	m.set("trace.next_ns", float64(lt.src.total.Nanoseconds())/acc, "ns", int(lt.src.calls))
	m.set("ctrl.access_ns", float64(lt.ctrl.total.Nanoseconds())/float64(lt.ctrl.calls), "ns", int(lt.ctrl.calls))
	m.set("ctrl.access_p99_ns", float64(lt.ctrl.hist.quantile(99)), "ns", int(lt.ctrl.calls))
	m.set("ctrl.calls_per_access", float64(lt.ctrl.calls)/acc, "count", 0)
	m.set("hier.self_ns_per_access", float64((run-lt.ctrl.total-lt.src.total).Nanoseconds())/acc, "ns", 0)
	m.set("setup.runner_ms", ms(setup)/float64(n), "ms", n)
	for _, l := range profLayers {
		m.set("prof."+l+".self_frac", layers[l], "1", 0)
	}
}
