// Package obs is the observability plane of the simulator: a sampled
// request-lifecycle tracer whose span events export as Chrome trace_event
// JSON (chrome://tracing / Perfetto), and live run introspection for long
// runs (an HTTP debug listener with pprof, expvar and a /runz status page).
//
// Everything in this package is opt-in and zero-cost when disabled: the
// tracer handle threaded through the simulator layers is nil by default and
// every hook is behind a nil check on the hot path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Event is one typed span event of a sampled request's lifecycle.
type Event struct {
	// Req is the request ID (the run-global demand-access ordinal).
	Req uint64
	// Name is the span phase: "req", "L1", "L2", "LLC", "ctrl",
	// "decision", or a device name ("DDR4-3200", "NVM", ...).
	Name string
	// Cat is the outcome class within the phase ("hit", "miss",
	// "stageHit", "rowMiss", ...).
	Cat string
	// Core is the issuing core.
	Core int32
	// Kind is the Chrome trace_event phase: 'X' (complete) or 'i' (instant).
	Kind byte
	// Start is the span's start cycle; Dur its length in cycles.
	Start uint64
	Dur   uint64
	// Addr is the line address of the request.
	Addr uint64
}

// DefaultTraceCapacity bounds the event ring buffer: at ~8 events per
// sampled request this holds the last ~8k sampled requests.
const DefaultTraceCapacity = 1 << 16

// Tracer records typed span events for a sampled subset of requests into a
// bounded ring buffer. It is per-run state owned by the run's goroutine,
// like the sim.Stats registry: not goroutine-safe, and not meant to be.
//
// The runner brackets every demand access with BeginReq/EndReq; the layers
// below (caches, controller, devices) attach spans to the current request
// via Span/Instant, which are no-ops unless the current request is sampled.
type Tracer struct {
	sampleEvery uint64
	events      []Event
	next        int
	wrapped     bool
	dropped     uint64

	reqs     uint64
	sampled  uint64
	sampling bool
	curReq   uint64
	curCore  int32
	curAddr  uint64
	curStart uint64
}

// NewTracer returns a tracer sampling one request in sampleEvery (1 = every
// request) into a ring buffer of the given event capacity (<= 0 selects
// DefaultTraceCapacity).
func NewTracer(sampleEvery uint64, capacity int) *Tracer {
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{sampleEvery: sampleEvery, events: make([]Event, 0, capacity)}
}

// TracerSink is implemented by components that can attach a tracer
// (controllers, devices). Components without it are silently skipped.
type TracerSink interface {
	SetTracer(*Tracer)
}

// BeginReq opens request accounting for one demand access and decides
// whether it is sampled. Must be paired with EndReq.
func (t *Tracer) BeginReq(core int, addr, now uint64) {
	t.reqs++
	t.sampling = (t.reqs-1)%t.sampleEvery == 0
	if !t.sampling {
		return
	}
	t.sampled++
	t.curReq = t.reqs
	t.curCore = int32(core)
	t.curAddr = addr
	t.curStart = now
	t.record(Event{Req: t.curReq, Name: "issue", Kind: 'i', Core: t.curCore, Start: now, Addr: addr})
}

// EndReq closes the current request, emitting its covering "req" span from
// issue to completion.
func (t *Tracer) EndReq(done uint64) {
	if !t.sampling {
		return
	}
	t.record(Event{
		Req: t.curReq, Name: "req", Kind: 'X', Core: t.curCore,
		Start: t.curStart, Dur: span(t.curStart, done), Addr: t.curAddr,
	})
	t.sampling = false
}

// Span records a complete ('X') span [start, end) on the current request.
// No-op unless the current request is sampled.
func (t *Tracer) Span(name, cat string, start, end uint64) {
	if !t.sampling {
		return
	}
	t.record(Event{
		Req: t.curReq, Name: name, Cat: cat, Kind: 'X', Core: t.curCore,
		Start: start, Dur: span(start, end), Addr: t.curAddr,
	})
}

// Instant records an instant ('i') event at ts on the current request.
func (t *Tracer) Instant(name, cat string, ts uint64) {
	if !t.sampling {
		return
	}
	t.record(Event{Req: t.curReq, Name: name, Cat: cat, Kind: 'i', Core: t.curCore, Start: ts, Addr: t.curAddr})
}

func span(start, end uint64) uint64 {
	if end <= start {
		return 0
	}
	return end - start
}

func (t *Tracer) record(e Event) {
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, e)
		return
	}
	t.events[t.next] = e
	t.next = (t.next + 1) % len(t.events)
	t.wrapped = true
	t.dropped++
}

// Events returns the buffered events in chronological record order.
func (t *Tracer) Events() []Event {
	if !t.wrapped {
		return t.events
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Reqs returns the total number of requests seen; SampledReqs how many were
// sampled; Dropped how many events were overwritten in the ring.
func (t *Tracer) Reqs() uint64        { return t.reqs }
func (t *Tracer) SampledReqs() uint64 { return t.sampled }
func (t *Tracer) Dropped() uint64     { return t.dropped }

// chromeEvent is the trace_event wire format. Timestamps are emitted with
// 1 µs per simulated cycle (trace_event's ts unit is microseconds and has
// no way to carry cycles natively); read "1 µs" as "1 CPU cycle".
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	TS   uint64     `json:"ts"`
	Dur  uint64     `json:"dur,omitempty"`
	PID  int        `json:"pid"`
	TID  int32      `json:"tid"`
	S    string     `json:"s,omitempty"` // instant scope
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Req  uint64 `json:"req"`
	Addr string `json:"addr"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChromeJSON serialises the buffered events as Chrome trace_event JSON
// loadable in chrome://tracing and Perfetto. Each core is one track (tid).
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	evs := t.Events()
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(evs)),
		DisplayTimeUnit: "ns",
		OtherData: map[string]string{
			"unit":        "1 ts = 1 CPU cycle",
			"sampledReqs": fmt.Sprintf("%d of %d", t.sampled, t.reqs),
		},
	}
	for _, e := range evs {
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: string(e.Kind), TS: e.Start,
			PID: 0, TID: e.Core,
			Args: chromeArgs{Req: e.Req, Addr: fmt.Sprintf("0x%x", e.Addr)},
		}
		if e.Kind == 'X' {
			ce.Dur = e.Dur
		} else if e.Kind == 'i' {
			ce.S = "t" // thread-scoped instant
		}
		if ce.Cat == "" {
			ce.Cat = "sim"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return json.NewEncoder(w).Encode(out)
}

// flameRow aggregates one phase for the human-readable summary.
type flameRow struct {
	name  string
	count uint64
	total uint64
	max   uint64
}

// WriteFlameSummary renders a per-phase aggregation of the buffered spans —
// a flame-graph-shaped text digest: for every phase name, how many sampled
// spans hit it, total/mean/max cycles inside it.
func (t *Tracer) WriteFlameSummary(w io.Writer) error {
	byName := map[string]*flameRow{}
	for _, e := range t.Events() {
		if e.Kind != 'X' {
			continue
		}
		r := byName[e.Name]
		if r == nil {
			r = &flameRow{name: e.Name}
			byName[e.Name] = r
		}
		r.count++
		r.total += e.Dur
		if e.Dur > r.max {
			r.max = e.Dur
		}
	}
	rows := make([]*flameRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d requests seen, %d sampled (1 in %d), %d events buffered, %d overwritten\n",
		t.reqs, t.sampled, t.sampleEvery, len(t.events), t.dropped)
	fmt.Fprintf(&b, "  %-12s %10s %14s %10s %10s\n", "phase", "spans", "cycles", "mean", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %10d %14d %10.1f %10d\n",
			r.name, r.count, r.total, float64(r.total)/float64(r.count), r.max)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
