package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"baryon/internal/service"
	"baryon/internal/sim"
)

// serve-mixed traffic shape.
const (
	serveRate      = 40   // requests per second, fixed inter-arrival time
	serveMissEvery = 10   // one request in this many is a never-seen job
	serveAccesses  = 1000 // per-core access budget of every served job
	warmSeeds      = 12   // seeds per (design, trace) in the warm set
	recomputeMiss  = 4    // misses re-simulated in process after the window
	recomputeReps  = 2    // in-process runs of each re-simulated response
)

var (
	warmDesigns = []string{"Baryon", "UnisonCache"}
	warmTraces  = []string{"505.mcf_r", "YCSB-B"}
)

// request is one scheduled serve-mixed request.
type request struct {
	at   time.Duration
	job  service.Job
	miss bool // a never-seen job: the server must simulate it
}

// warmJobs is the job set served from the store: {Baryon, UnisonCache} x
// {505.mcf_r, YCSB-B} x warmSeeds seeds derived from the workload seed.
func warmJobs(seed uint64) []service.Job {
	base := splitmix(seed) % 1_000_000_000
	var jobs []service.Job
	for _, d := range warmDesigns {
		for _, t := range warmTraces {
			for s := uint64(0); s < warmSeeds; s++ {
				jobs = append(jobs, service.Job{Design: d, Workload: t, Seed: base + s, Accesses: serveAccesses})
			}
		}
	}
	return jobs
}

// serveSchedule lays out n requests at a fixed rate. Every serveMissEvery-th
// request is a never-seen Baryon/505.mcf_r job, so misses arrive evenly and
// one simulation ends before the next miss is due; the others request warm
// jobs drawn uniformly with a generator seeded from the workload seed.
func serveSchedule(seed uint64, n int) []request {
	warm := warmJobs(seed)
	base := splitmix(seed) % 1_000_000_000
	rng := rand.New(rand.NewSource(int64(splitmix(seed ^ 0x5e7e))))
	out := make([]request, n)
	for i := range out {
		out[i].at = time.Duration(i) * time.Second / serveRate
		if i%serveMissEvery == serveMissEvery/2 {
			out[i].miss = true
			out[i].job = service.Job{Design: "Baryon", Workload: "505.mcf_r",
				Seed: base + warmSeeds + uint64(i), Accesses: serveAccesses}
		} else {
			out[i].job = warm[rng.Intn(len(warm))]
		}
	}
	return out
}

// served is what one request got back.
type served struct {
	status, hash, digest string
	err                  error
}

// serveBench runs baryonsimd in process and drives it open-loop.
type serveBench struct {
	seed     uint64
	seconds  float64
	traced   bool
	runDir   string // profile
	storeDir string // result store
	spans    string // span log path
}

func (b *serveBench) run(ctx context.Context) (*result, error) {
	out := newResult()
	var log *spanLog
	if b.traced {
		log = newSpanLog()
	}
	var prof *cpuProfile
	if b.traced {
		prof = newCPUProfile(b.runDir)
	}

	// Set-up: the daemon's defaults, one simulation worker, an LRU a
	// quarter the size of the warm set (so hits come from memory and from
	// the verified disk store), then the warm set simulated through the
	// API in four chunks.
	t0 := time.Now()
	warm := warmJobs(b.seed)
	svc, err := service.New(service.Options{
		Workers:        1,
		CacheEntries:   len(warm) / 4,
		CacheDir:       b.storeDir,
		MaxQueue:       256,
		MaxSyncWaiters: 64,
		Log:            io.Discard,
	})
	if err != nil {
		return nil, err
	}
	srvCtx, stopRuns := context.WithCancel(ctx)
	defer stopRuns()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: service.NewHandlerOpts(svc, service.HandlerOptions{
		RunCtx: srvCtx, WriteTimeout: time.Minute, Log: os.Stderr,
	})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	startS := time.Since(t0).Seconds()

	conns := runtime.NumCPU()
	clients := make([]*service.Client, conns)
	for c := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[c] = &service.Client{Base: base, HTTP: &http.Client{Transport: tr}}
	}
	const chunks = 4
	var chunkS []float64
	first := make(map[string]string) // spec hash -> digest of its first response
	for k := 0; k < chunks; k++ {
		c0 := time.Now()
		for _, j := range warm[k*len(warm)/chunks : (k+1)*len(warm)/chunks] {
			body, status, hash, err := clients[0].RunSync(ctx, j)
			if err != nil {
				return nil, fmt.Errorf("warming %s/%s seed=%d: %w", j.Design, j.Workload, j.Seed, err)
			}
			if status != "miss" {
				return nil, fmt.Errorf("warming %s/%s seed=%d: got %q, want a miss", j.Design, j.Workload, j.Seed, status)
			}
			first[hash] = digestOf(body)
		}
		chunkS = append(chunkS, time.Since(c0).Seconds())
	}
	setupS := startS + chunks*median(chunkS)

	// The measured window.
	reqs := serveSchedule(b.seed, int(b.seconds*serveRate))
	sched := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		sched[i] = r.at
	}
	got := make([]served, len(reqs))
	cs0 := svc.Cache().Stats()
	snap0 := svc.MetricsSnapshot()
	if err := prof.resume(); err != nil {
		return nil, err
	}
	start := time.Now()
	samples := openLoop(ctx, realClock{start: start}, sched, conns, func(c, i int) {
		id, t := log.begin()
		body, status, hash, err := clients[c].RunSync(ctx, reqs[i].job)
		log.end(id, 0, uint64(i+1), "client.run_sync", t)
		got[i] = served{status: status, hash: hash, err: err}
		if err == nil {
			got[i].digest = digestOf(body)
		}
	})
	window := time.Since(start)
	if err := prof.pause(); err != nil {
		return nil, err
	}
	cs1 := svc.Cache().Stats()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if len(reqs) <= serveMissEvery/2 {
		return nil, fmt.Errorf("a %gs window holds no miss", b.seconds)
	}
	// Every miss job has the same shape: cores x serveAccesses.
	missRes, err := svc.Resolve(reqs[serveMissEvery/2].job)
	if err != nil {
		return nil, err
	}
	missAccesses := missRes.Cfg.Cores * missRes.Cfg.AccessesPerCore
	var hitMS, missMS, lagMS, hitSendUS, missThr []float64
	for i, s := range samples {
		g := got[i]
		lagMS = append(lagMS, ms(s.lag()))
		ok := g.err == nil
		if ok {
			if d, seen := first[g.hash]; seen {
				ok = d == g.digest
			} else {
				first[g.hash] = g.digest
			}
		}
		out.attempt(ok, "request %d (%s/%s seed=%d): status %q err %v, response differs from the first for %s",
			i, reqs[i].job.Design, reqs[i].job.Workload, reqs[i].job.Seed, g.status, g.err, g.hash)
		switch {
		case !ok:
		case g.status == "hit":
			hitMS = append(hitMS, ms(s.latency()))
			hitSendUS = append(hitSendUS, float64((s.done - s.sent).Microseconds()))
		case g.status == "miss":
			missMS = append(missMS, ms(s.latency()))
			missThr = append(missThr, float64(missAccesses)/(s.done-s.sent).Seconds())
		}
	}
	checkStore(out, svc)

	// Re-simulate a sample of responses in process: every response must
	// equal the recomputation byte for byte. A traced run re-simulates each
	// again with the timing wrappers, for the simulator's layers and the
	// tracing overhead.
	check := recomputeSet(reqs, got)
	var lt *layerTimers
	if b.traced {
		lt = newLayerTimers(log)
	}
	best, tracedBest := newBestRuns(), newBestRuns()
	var allocs []float64
	var counts, tcounts simCounts
	var trun, tsetup time.Duration
	checked := make([]service.Resolved, len(check))
	for k, i := range check {
		if checked[k], err = svc.Resolve(reqs[i].job); err != nil {
			return nil, err
		}
	}
	// Repeats go round the set, so a burst of host noise costs a job at
	// most one of its runs; the overhead compares each job's fastest.
	for rep := 0; rep < recomputeReps; rep++ {
		for k, i := range check {
			r := checked[k]
			reqID := uint64(len(reqs) + 1 + k)
			pr, err := simulate(ctx, r, nil, nil, reqID, 0)
			out.attempt(err == nil && pr.digest == got[i].digest, "request %d (%s/%s seed=%d): served %s, recomputed %s (err %v)",
				i, r.Job.Design, r.Job.Workload, r.Job.Seed, got[i].digest, pr.digest, err)
			if err != nil {
				continue
			}
			best.observe(k, pr.res.Measured.Accesses, pr.run)
			allocs = append(allocs, float64(pr.allocBytes)/float64(pr.res.Measured.Accesses))
			if rep == 0 {
				counts.add(pr.res)
			}
			if lt == nil {
				continue
			}
			rootID, rootStart := log.begin()
			tpr, err := simulate(ctx, r, lt, log, reqID, rootID)
			log.end(rootID, 0, reqID, "recompute", rootStart)
			out.attempt(err == nil && tpr.digest == pr.digest, "request %d: traced recomputation %s, untraced %s (err %v)",
				i, tpr.digest, pr.digest, err)
			if err != nil {
				continue
			}
			tracedBest.observe(k, tpr.res.Measured.Accesses, tpr.run)
			trun += tpr.run
			tsetup += tpr.setup
			if rep == 0 {
				tcounts.add(tpr.res)
			}
		}
	}

	m := out.metrics
	m.set("sim_accesses_per_s", median(missThr), "1/s", len(missThr))
	m.set("alloc_bytes_per_access", median(allocs), "B", len(allocs))
	m.set("setup_s", setupS, "s", chunks)
	m.set("peak_rss_mb", peakRSSMB(), "MB", 0)
	setLatency(m, "hit_p50_ms", hitMS, 50)
	setLatency(m, "miss_p50_ms", missMS, 50)
	out.note("requests", len(reqs))
	out.note("connections", conns)
	out.note("rate_per_s", serveRate)
	out.note("measured_s", window.Seconds())
	if !b.traced {
		return out, nil
	}

	// Traced run: simulator layers from the traced recomputations, and
	// the service's layers probed in process against the live store.
	layers, err := prof.layers()
	if err != nil {
		return nil, err
	}
	out.attempt(tcounts == counts, "traced recomputation counts %+v differ from the untraced %+v", tcounts, counts)
	simLayers(m, lt, trun, tsetup, len(check)*recomputeReps, layers)
	counts.report(m)
	m.set("trace.overhead_frac", 1-tracedBest.throughput()/best.throughput(), "1", len(check)*recomputeReps)
	m.set("gc.cpu_frac", prof.gcFrac(), "1", 0)

	var ss svcSamples
	probe := uint64(len(reqs) + len(check) + 1)
	for k, j := range warm {
		h, err := svc.Resolve(j)
		if err != nil {
			return nil, err
		}
		// Half the warm set away, so most likely not in the LRU.
		other := warm[(k+len(warm)/2)%len(warm)]
		oh, err := svc.Resolve(other)
		if err != nil {
			return nil, err
		}
		rootID, rootStart := log.begin()
		ss.timeResolve(svc, j, log, probe, rootID)
		// The in-process hit sees the LRU as the window left it, like the
		// served hits; the reads after it are one disk and one memory get.
		id, t := log.begin()
		o, err := svc.Run(ctx, j)
		ss.runHitUS = append(ss.runHitUS, float64(log.end(id, rootID, probe, "svc.run", t).Nanoseconds())/1e3)
		out.attempt(err == nil && o.CacheHit && digestOf(o.Bundle) == first[h.Hash],
			"in-process hit for %s differs from the served bytes (err %v)", h.Hash, err)
		ss.timeGet(svc, oh.Hash, log, probe, rootID)
		ss.timeGet(svc, h.Hash, log, probe, rootID)
		log.end(rootID, 0, probe, "probe.hit", rootStart)
		probe++
	}
	for k := 0; k < 2*recomputeMiss; k++ {
		j := service.Job{Design: "Baryon", Workload: "505.mcf_r", Seed: 1<<40 + b.seed<<8 + uint64(k), Accesses: serveAccesses}
		r, err := svc.Resolve(j)
		if err != nil {
			return nil, err
		}
		rootID, rootStart := log.begin()
		pr, err := simulate(ctx, r, nil, log, probe, rootID)
		if err != nil {
			return nil, err
		}
		ss.simRunMS = append(ss.simRunMS, ms(pr.run))
		ss.encodeUS = append(ss.encodeUS, float64(pr.encode.Microseconds()))
		id, t := log.begin()
		svc.Cache().Put(r.Hash, pr.bundle)
		ss.putMS = append(ss.putMS, ms(log.end(id, rootID, probe, "store.put", t)))
		log.end(rootID, 0, probe, "probe.miss", rootStart)
		probe++
	}
	checkStore(out, svc)
	ss.report(m, cs0, cs1, snap0, svc.MetricsSnapshot())
	setLatency(m, "hit_p99_ms", hitMS, 99)
	setLatency(m, "miss_p90_ms", missMS, 90)
	m.set("http.hit_us", med(hitSendUS)-med(ss.runHitUS), "us", len(hitSendUS))
	setLatency(m, "loadgen.lag_p99_ms", lagMS, 99)
	return out, log.write(b.spans)
}

// recomputeSet picks the responses to re-simulate, the same mix on every
// seed: recomputeMiss evenly spaced misses and the first hit of each warm
// (design, trace) combination.
func recomputeSet(reqs []request, got []served) []int {
	var misses, set []int
	combo := make(map[[2]string]bool)
	for i, g := range got {
		if g.err != nil {
			continue
		}
		if reqs[i].miss {
			misses = append(misses, i)
			continue
		}
		k := [2]string{reqs[i].job.Design, reqs[i].job.Workload}
		if g.status == "hit" && !combo[k] {
			combo[k] = true
			set = append(set, i)
		}
	}
	for k := 0; k < recomputeMiss && len(misses) > 0; k++ {
		set = append(set, misses[k*len(misses)/recomputeMiss])
	}
	sort.Ints(set)
	return set
}

// checkStore fails the run when the result store saw corrupt entries.
func checkStore(out *result, svc *service.Service) {
	cs := svc.Cache().Stats()
	out.attempt(cs.Corrupt == 0 && cs.Quarantined == 0, "result store: %d corrupt, %d quarantined entries", cs.Corrupt, cs.Quarantined)
}

// svcSamples are the in-process timings of the service's layers.
type svcSamples struct {
	resolveUS, getMemUS, getDiskUS, runHitUS []float64
	putMS, encodeUS, simRunMS                []float64
}

// timeGet times one Cache.Get and files it as a memory or a disk read by
// the store's stats delta.
func (s *svcSamples) timeGet(svc *service.Service, hash string, log *spanLog, req, parent uint64) {
	before := svc.Cache().Stats().DiskHits
	id, t := log.begin()
	svc.Cache().Get(hash)
	us := float64(log.end(id, parent, req, "store.get", t).Nanoseconds()) / 1e3
	if svc.Cache().Stats().DiskHits > before {
		s.getDiskUS = append(s.getDiskUS, us)
	} else {
		s.getMemUS = append(s.getMemUS, us)
	}
}

// timeResolve times one Service.Resolve call.
func (s *svcSamples) timeResolve(svc *service.Service, j service.Job, log *spanLog, req, parent uint64) {
	id, t := log.begin()
	_, _ = svc.Resolve(j) // j resolved before; only the time matters here
	s.resolveUS = append(s.resolveUS, float64(log.end(id, parent, req, "svc.resolve", t).Nanoseconds())/1e3)
}

// report sets the service-layer per-layer metrics; cs and snap are the
// store stats and service counters before and after the measured window.
func (s *svcSamples) report(m *metricSet, cs0, cs1 service.CacheStats, snap0, snap1 sim.Snapshot) {
	m.set("svc.resolve_us", med(s.resolveUS), "us", len(s.resolveUS))
	m.set("store.get_mem_us", med(s.getMemUS), "us", len(s.getMemUS))
	m.set("store.get_disk_us", med(s.getDiskUS), "us", len(s.getDiskUS))
	hits := cs1.Hits - cs0.Hits
	disk := 0.0
	if hits > 0 {
		disk = float64(cs1.DiskHits-cs0.DiskHits) / float64(hits)
	}
	m.set("store.disk_hit_frac", disk, "1", int(hits))
	m.set("svc.run_hit_us", med(s.runHitUS), "us", len(s.runHitUS))
	m.set("store.put_ms", med(s.putMS), "ms", len(s.putMS))
	m.set("report.encode_us", med(s.encodeUS), "us", len(s.encodeUS))
	m.set("sim.run_ms", med(s.simRunMS), "ms", len(s.simRunMS))
	delta := func(name string) float64 { return float64(snap1.Get(name) - snap0.Get(name)) }
	m.set("svc.simulations", delta("jobs.simulations"), "count", 0)
	m.set("svc.collapsed", delta("jobs.collapsed"), "count", 0)
	m.set("admission.rejected", delta("admission.rejected"), "count", 0)
}
