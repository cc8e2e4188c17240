package service

import (
	"container/list"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/report"
	"baryon/internal/sim"
)

// ErrDraining is returned for submissions after Drain: the service is
// shutting down and accepts no new work.
var ErrDraining = errors.New("service: draining, not accepting new jobs")

// ErrOverloaded is returned when admission control refuses a submission:
// the async queue or the sync-waiter pool is full. Because runs are
// deterministic and content-addressed, a rejected request loses nothing —
// retrying after backoff converges to the identical answer (the HTTP layer
// answers 429 with a Retry-After hint; the Client honors it).
var ErrOverloaded = errors.New("service: overloaded, retry later")

// Options configures a Service.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// CacheEntries bounds the in-memory result LRU (0 = default).
	CacheEntries int
	// CacheDir, when non-empty, persists every result bundle on disk so a
	// restarted service serves its predecessor's results (cold-start
	// reload).
	CacheDir string
	// BaseConfig is the configuration jobs override (nil = config.Scaled()).
	BaseConfig *config.Config
	// MaxQueue bounds accepted-but-unfinished async submissions; beyond it
	// Submit returns ErrOverloaded instead of queueing without limit
	// (0 = unbounded).
	MaxQueue int
	// MaxSyncWaiters bounds synchronous cache-miss submissions waiting for
	// a simulation; beyond it Run returns ErrOverloaded (0 = unbounded).
	// Cache hits are never refused — serving stored bytes is cheap.
	MaxSyncWaiters int
	// Log receives the store's recovery and degradation diagnostics
	// (nil = os.Stderr).
	Log io.Writer
	// Designs are the designs jobs may name beyond the built-ins (e.g.
	// loaded from -design-files). A name must not repeat a built-in or
	// another entry.
	Designs []experiment.DesignSpec
}

// Outcome is the result of one job submission.
type Outcome struct {
	// Hash is the job's content-address (the canonical spec hash).
	Hash string
	// Bundle is the canonical report-bundle bytes — byte-identical whether
	// freshly simulated or served from the store.
	Bundle []byte
	// CacheHit reports the bundle came from the result store; no
	// simulation ran for this call.
	CacheHit bool
	// Collapsed reports this call rode an identical in-flight submission
	// (singleflight); the one simulation was charged to another call.
	Collapsed bool
	// Result carries the full in-memory metrics and is set only when this
	// call executed the simulation itself.
	Result *cpu.Result
}

// ServedWithoutSim reports whether this submission cost zero simulations.
func (o Outcome) ServedWithoutSim() bool { return o.CacheHit || o.Collapsed }

// Service is the shared run-service core: resolve, cache, collapse, and
// simulate jobs under a bounded worker pool.
type Service struct {
	base    config.Config
	designs []experiment.DesignSpec
	cache   *Cache
	flight  flightGroup
	sem     chan struct{}
	workers int

	maxQueue       int
	maxSyncWaiters int

	mu       sync.Mutex
	jobs     map[string]*jobState
	finished *list.List // finished jobStates, oldest at front
	jobsCap  int        // bound on retained finished entries

	draining atomic.Bool
	wg       sync.WaitGroup

	submitted, completed, failed    atomic.Uint64
	simulations, collapsed, waiting atomic.Uint64

	asyncPending, syncWaiters            atomic.Int64
	admissionRejected, deadlinesExceeded atomic.Uint64
}

// New builds a Service.
func New(opts Options) (*Service, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var designs []experiment.DesignSpec
	for _, spec := range opts.Designs {
		var err error
		if designs, err = experiment.AddDesign(designs, spec); err != nil {
			return nil, err
		}
	}
	cache, err := NewStore(StoreConfig{Entries: opts.CacheEntries, Dir: opts.CacheDir, Log: opts.Log})
	if err != nil {
		return nil, err
	}
	base := config.Scaled()
	if opts.BaseConfig != nil {
		base = *opts.BaseConfig
	}
	return &Service{
		base:           base,
		designs:        designs,
		cache:          cache,
		sem:            make(chan struct{}, workers),
		workers:        workers,
		maxQueue:       opts.MaxQueue,
		maxSyncWaiters: opts.MaxSyncWaiters,
		jobs:           make(map[string]*jobState),
		finished:       list.New(),
		// The job table keeps as many finished entries as the cache keeps
		// bundles; beyond that, Status falls back to the result store.
		jobsCap: cache.cap,
	}, nil
}

// acquire registers one unit of in-flight work, refusing when the service is
// draining. The re-check after wg.Add closes the race with Drain+Wait: work
// that passes the second check either completed its Add before Wait could
// observe a zero counter, or is rejected here — Wait never returns while an
// accepted job is still starting.
func (s *Service) acquire() bool {
	if s.draining.Load() {
		return false
	}
	s.wg.Add(1)
	if s.draining.Load() {
		s.wg.Done()
		return false
	}
	return true
}

// Cache exposes the underlying result store (read-mostly: metrics, tests).
func (s *Service) Cache() *Cache { return s.cache }

// Resolve validates and canonicalizes a job against the service's base
// configuration. Errors are client errors (unknown design/workload, bad
// mode or windows).
func (s *Service) Resolve(job Job) (Resolved, error) { return job.resolve(s.base, s.designs) }

// Run executes one job synchronously: result-store hit, collapse into an
// identical in-flight submission, or a fresh simulation on the worker pool.
func (s *Service) Run(ctx context.Context, job Job) (Outcome, error) {
	r, err := s.Resolve(job)
	if err != nil {
		return Outcome{}, err
	}
	return s.RunResolved(ctx, r)
}

// RunResolved is Run for a pre-resolved job.
func (s *Service) RunResolved(ctx context.Context, r Resolved) (Outcome, error) {
	if !s.acquire() {
		return Outcome{}, ErrDraining
	}
	defer s.wg.Done()
	return s.runAccepted(ctx, r, true)
}

// runAccepted executes an already-accepted job; the caller holds the
// work unit (acquire) that keeps Wait from returning early. sync marks
// request-scoped callers, which the MaxSyncWaiters admission bound applies
// to (async work is bounded at Submit instead).
func (s *Service) runAccepted(ctx context.Context, r Resolved, sync bool) (Outcome, error) {
	s.submitted.Add(1)
	if data, ok := s.cache.Get(r.Hash); ok {
		s.completed.Add(1)
		return Outcome{Hash: r.Hash, Bundle: data, CacheHit: true}, nil
	}
	// Admission control for the sync path: a cache miss parks this caller
	// (its goroutine, connection and buffers) until a simulation finishes;
	// past the configured bound the memory-safe answer is "retry later",
	// never an unbounded pile of waiters.
	if sync && s.maxSyncWaiters > 0 {
		if n := s.syncWaiters.Add(1); n > int64(s.maxSyncWaiters) {
			s.syncWaiters.Add(-1)
			s.admissionRejected.Add(1)
			s.failed.Add(1)
			return Outcome{}, ErrOverloaded
		}
		defer s.syncWaiters.Add(-1)
	}
	out, shared, err := s.flight.do(ctx, r.Hash, func() (Outcome, error) {
		return s.simulate(ctx, r)
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.deadlinesExceeded.Add(1)
		}
		s.failed.Add(1)
		return Outcome{}, err
	}
	if shared {
		// Followers share only the immutable bundle bytes, never the
		// leader's live Stats registry.
		s.collapsed.Add(1)
		s.completed.Add(1)
		return Outcome{Hash: r.Hash, Bundle: out.Bundle, Collapsed: true}, nil
	}
	s.completed.Add(1)
	return out, nil
}

// simulate runs r on the worker pool and stores its canonical bundle. It is
// only ever entered once per in-flight hash (flightGroup).
func (s *Service) simulate(ctx context.Context, r Resolved) (Outcome, error) {
	s.waiting.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(^uint64(0))
	case <-ctx.Done():
		s.waiting.Add(^uint64(0))
		return Outcome{}, ctx.Err()
	}
	defer func() { <-s.sem }()
	s.simulations.Add(1)

	st := s.state(r)
	st.setRunning()
	out, err := s.runPair(ctx, r, st)
	// Record the terminal state here, where the run actually ends: the sync
	// path (Run/RunResolved) has no Submit goroutine to finish the table
	// entry, and without this a completed synchronous miss would report
	// "running" forever.
	if st.finish(out, err) {
		s.retire(st)
	}
	return out, err
}

// runPair executes the resolved job and stores its canonical bundle in the
// result store.
func (s *Service) runPair(ctx context.Context, r Resolved, st *jobState) (Outcome, error) {
	pair := experiment.Pair{
		Cfg:      r.Cfg,
		Workload: r.W,
		Spec:     r.Spec,
		Obs:      &experiment.RunObs{Introspector: st.intro},
	}
	// RunPair's panic boundary is the same per-pair isolation sweeps get: a
	// controller bug fails the job, not the server.
	res, err := experiment.RunPair(ctx, pair)
	if err != nil {
		return Outcome{}, err
	}
	b, err := report.New(r.Key, res)
	if err != nil {
		return Outcome{}, err
	}
	data, err := b.MarshalCanonical()
	if err != nil {
		return Outcome{}, err
	}
	// Put never fails the job: a disk-write failure degrades the store to
	// memory-only (counted, logged, visible on /metrics) while this result
	// is served from memory like any other.
	s.cache.Put(r.Hash, data)
	return Outcome{Hash: r.Hash, Bundle: data, Result: &res}, nil
}

// --- Async submissions (the daemon's job table) --------------------------

// Job lifecycle states reported by Status.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Progress is the compact live view of a running job, distilled from the
// runner's Introspector snapshots.
type Progress struct {
	Phase          string    `json:"phase"`
	Accesses       uint64    `json:"accesses"`
	TargetAccesses uint64    `json:"targetAccesses"`
	Cycles         uint64    `json:"cycles"`
	Instructions   uint64    `json:"instructions"`
	UpdatedAt      time.Time `json:"updatedAt"`
}

// JobStatus is the serializable status snapshot of one submitted job.
type JobStatus struct {
	Hash      string    `json:"hash"`
	Job       Job       `json:"job"`
	State     string    `json:"state"`
	CacheHit  bool      `json:"cacheHit,omitempty"`
	Collapsed bool      `json:"collapsed,omitempty"`
	Error     string    `json:"error,omitempty"`
	Progress  *Progress `json:"progress,omitempty"`
}

// jobState tracks one hash's lifecycle. The introspector is created with
// the state so status readers can stream progress while the run is live.
type jobState struct {
	mu        sync.Mutex
	hash      string
	job       Job
	state     string
	cacheHit  bool
	collapsed bool
	errMsg    string
	intro     *obs.Introspector
}

func (st *jobState) setRunning() {
	st.mu.Lock()
	if st.state == StateQueued {
		st.state = StateRunning
	}
	st.mu.Unlock()
}

// finish records the terminal state and reports whether this call performed
// the transition. Once done or failed the entry is immutable: a simulate
// leader and a Submit goroutine may both call finish for the same hash, and
// the first (the run that actually ended) wins.
func (st *jobState) finish(out Outcome, err error) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state == StateDone || st.state == StateFailed {
		return false
	}
	if err != nil {
		st.state = StateFailed
		st.errMsg = err.Error()
		return true
	}
	st.state = StateDone
	st.cacheHit = out.CacheHit
	st.collapsed = out.Collapsed
	return true
}

func (st *jobState) status() JobStatus {
	st.mu.Lock()
	js := JobStatus{
		Hash:      st.hash,
		Job:       st.job,
		State:     st.state,
		CacheHit:  st.cacheHit,
		Collapsed: st.collapsed,
		Error:     st.errMsg,
	}
	st.mu.Unlock()
	if js.State == StateRunning {
		if rs := st.intro.Latest(); rs != nil {
			js.Progress = &Progress{
				Phase:          rs.Phase,
				Accesses:       rs.Accesses,
				TargetAccesses: rs.TargetAccesses,
				Cycles:         rs.Cycles,
				Instructions:   rs.Instructions,
				UpdatedAt:      rs.UpdatedAt,
			}
		}
	}
	return js
}

// state returns (creating if needed) the job table entry for r.
func (s *Service) state(r Resolved) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[r.Hash]
	if !ok {
		st = &jobState{hash: r.Hash, job: r.Job, state: StateQueued, intro: &obs.Introspector{}}
		s.jobs[r.Hash] = st
	}
	return st
}

// retire enrolls a finished jobState in the bounded retention list and
// evicts the oldest finished entries beyond the bound, keeping the job table
// from growing without limit in a long-running daemon. Only the caller that
// performed the finish transition retires an entry, so each appears at most
// once. Eviction re-checks identity: a failed hash resubmitted (and so
// replaced in the map) is not clobbered by its predecessor's retirement.
func (s *Service) retire(st *jobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished.PushBack(st)
	for s.finished.Len() > s.jobsCap {
		el := s.finished.Front()
		s.finished.Remove(el)
		old := el.Value.(*jobState)
		if cur, ok := s.jobs[old.hash]; ok && cur == old {
			delete(s.jobs, old.hash)
		}
	}
}

// Submit enqueues a job asynchronously and returns its immediate status.
// The job is content-addressed: submitting an identical job returns the
// existing entry (done, running or queued) instead of a duplicate; a failed
// entry is retried. ctx bounds the job's whole execution — the daemon
// passes its lifetime context, not the HTTP request's.
func (s *Service) Submit(ctx context.Context, job Job) (JobStatus, error) {
	if s.draining.Load() {
		return JobStatus{}, ErrDraining
	}
	r, err := s.Resolve(job)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	st, ok := s.jobs[r.Hash]
	launch := false
	if !ok || st.status().State == StateFailed {
		st = &jobState{hash: r.Hash, job: r.Job, state: StateQueued, intro: &obs.Introspector{}}
		s.jobs[r.Hash] = st
		launch = true
	}
	s.mu.Unlock()
	if launch {
		rollback := func() {
			s.mu.Lock()
			if cur, ok := s.jobs[r.Hash]; ok && cur == st {
				delete(s.jobs, r.Hash)
			}
			s.mu.Unlock()
		}
		// Admission control for the async path: every accepted submission
		// is a goroutine plus a job-table entry until it finishes, so the
		// queue bound is what keeps a load spike from growing the heap
		// without limit. Add-then-check keeps the bound exact under
		// concurrent submissions. Identical re-submissions never get here —
		// they reuse the existing entry above and cost nothing.
		if s.maxQueue > 0 {
			if n := s.asyncPending.Add(1); n > int64(s.maxQueue) {
				s.asyncPending.Add(-1)
				s.admissionRejected.Add(1)
				rollback()
				return JobStatus{}, ErrOverloaded
			}
		} else {
			s.asyncPending.Add(1)
		}
		if !s.acquire() {
			// Drain raced the submission: roll back the queued entry (if
			// still ours) instead of leaving a job no goroutine will run.
			s.asyncPending.Add(-1)
			rollback()
			return JobStatus{}, ErrDraining
		}
		go func() {
			defer s.wg.Done()
			defer s.asyncPending.Add(-1)
			// runAccepted, not RunResolved: this goroutine already holds an
			// accepted work unit, and a Drain between Submit and here must
			// not fail a job the service promised to run.
			out, err := s.runAccepted(ctx, r, false)
			if st.finish(out, err) {
				s.retire(st)
			}
		}()
	}
	return st.status(), nil
}

// Status returns the status of a previously submitted hash. A hash that was
// never submitted this process — or whose finished table entry was evicted
// by the retention bound — but whose bundle is in the result store reports
// as done (the store outlives the job table across restarts and evictions).
// Evicted failed entries report not-found; resubmitting retries them.
func (s *Service) Status(hash string) (JobStatus, bool) {
	s.mu.Lock()
	st, ok := s.jobs[hash]
	s.mu.Unlock()
	if ok {
		return st.status(), true
	}
	if _, ok := s.cache.Get(hash); ok {
		return JobStatus{Hash: hash, State: StateDone, CacheHit: true}, true
	}
	return JobStatus{}, false
}

// ResultBytes returns the canonical bundle bytes for a completed hash.
func (s *Service) ResultBytes(hash string) ([]byte, bool) {
	return s.cache.Get(hash)
}

// Drain stops the service accepting new submissions; in-flight jobs keep
// running. Wait blocks until they finish.
func (s *Service) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Wait blocks until every accepted job has finished, or ctx expires.
func (s *Service) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// MetricsSnapshot renders the service's cache and queue gauges as a
// registry snapshot for the PR 8 OpenMetrics path (obs.WriteOpenMetrics).
func (s *Service) MetricsSnapshot() sim.Snapshot {
	st := sim.NewStats()
	cs := s.cache.Stats()
	st.Counter("cache.hits").Add(cs.Hits)
	st.Counter("cache.diskHits").Add(cs.DiskHits)
	st.Counter("cache.misses").Add(cs.Misses)
	st.Counter("cache.evictions").Add(cs.Evictions)
	st.Counter("cache.entries").Add(uint64(cs.Entries))
	st.Counter("cache.corrupt").Add(cs.Corrupt)
	st.Counter("cache.quarantined").Add(cs.Quarantined)
	st.Counter("cache.diskError").Add(cs.DiskErrors)
	st.Counter("cache.recoveredTmp").Add(cs.RecoveredTmp)
	if cs.Degraded {
		st.Counter("cache.degraded").Add(1)
	} else {
		st.Counter("cache.degraded").Add(0)
	}
	st.Counter("jobs.submitted").Add(s.submitted.Load())
	st.Counter("jobs.completed").Add(s.completed.Load())
	st.Counter("jobs.failed").Add(s.failed.Load())
	st.Counter("jobs.collapsed").Add(s.collapsed.Load())
	st.Counter("jobs.simulations").Add(s.simulations.Load())
	st.Counter("queue.running").Add(uint64(len(s.sem)))
	st.Counter("queue.waiting").Add(s.waiting.Load())
	st.Counter("queue.queued").Add(uint64(max(0, s.asyncPending.Load())))
	st.Counter("queue.syncWaiters").Add(uint64(max(0, s.syncWaiters.Load())))
	st.Counter("admission.rejected").Add(s.admissionRejected.Load())
	st.Counter("deadline.exceeded").Add(s.deadlinesExceeded.Load())
	return st.Snapshot()
}

// RetryAfter suggests how many seconds a rejected client should back off
// before resubmitting, scaled to the current backlog per worker. It is the
// value behind the HTTP Retry-After header on 429/503 responses.
func (s *Service) RetryAfter() int {
	backlog := int(s.waiting.Load()) + int(s.asyncPending.Load())
	secs := 1 + backlog/s.workers
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Simulations reports how many simulations have actually executed — the
// denominator of every "identical requests cost one simulation" claim.
func (s *Service) Simulations() uint64 { return s.simulations.Load() }
