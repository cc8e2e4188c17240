package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runReq simulates the runner's bracket around one request with a typical
// span set (miss path through three cache levels to a device).
func runReq(t *Tracer, core int, addr, now uint64) {
	t.BeginReq(core, addr, now)
	t.Span("L1", "miss", now, now+4)
	t.Span("L2", "miss", now+4, now+13)
	t.Span("LLC", "miss", now+13, now+51)
	t.Instant("decision", "fastHit", now+51)
	t.Span("ctrl", "fast", now+51, now+200)
	t.Span("DDR4-3200", "rowHit", now+60, now+190)
	t.EndReq(now + 200)
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4, 0)
	for i := 0; i < 100; i++ {
		runReq(tr, i%16, uint64(i)*64, uint64(i)*300)
	}
	if tr.Reqs() != 100 {
		t.Fatalf("Reqs() = %d, want 100", tr.Reqs())
	}
	// 1-in-4 starting at the first request: 100/4 = 25.
	if tr.SampledReqs() != 25 {
		t.Fatalf("SampledReqs() = %d, want 25", tr.SampledReqs())
	}
	// 8 events per sampled request (issue + 5 spans + decision + req).
	if got := len(tr.Events()); got != 25*8 {
		t.Fatalf("len(Events()) = %d, want %d", got, 25*8)
	}
	// Spans outside a sampled request are dropped.
	reqs := map[uint64]bool{}
	for _, e := range tr.Events() {
		reqs[e.Req] = true
	}
	for r := range reqs {
		if (r-1)%4 != 0 {
			t.Fatalf("unsampled request %d has events", r)
		}
	}
}

func TestTracerSpansOutsideRequestIgnored(t *testing.T) {
	tr := NewTracer(1, 0)
	tr.Span("L1", "hit", 0, 4) // before any BeginReq
	tr.Instant("decision", "x", 1)
	if len(tr.Events()) != 0 {
		t.Fatalf("events recorded outside a request: %d", len(tr.Events()))
	}
	tr.BeginReq(0, 64, 10)
	tr.Span("L1", "hit", 10, 14) // inside the sampled request
	tr.EndReq(20)
	tr.Span("L1", "hit", 20, 24) // after EndReq
	tr.EndReq(30)                // no request open: no second "req" span
	var names []string
	for _, e := range tr.Events() {
		names = append(names, e.Name)
	}
	if got := strings.Join(names, ","); got != "issue,L1,req" {
		t.Fatalf("events = %s, want issue,L1,req", got)
	}
}

func TestTracerRingBound(t *testing.T) {
	const capEvents = 64
	tr := NewTracer(1, capEvents)
	for i := 0; i < 100; i++ {
		tr.BeginReq(0, uint64(i), uint64(i)*10)
		tr.EndReq(uint64(i)*10 + 5)
	}
	evs := tr.Events()
	if len(evs) != capEvents {
		t.Fatalf("ring grew past capacity: %d events", len(evs))
	}
	if tr.Dropped() != 200-capEvents {
		t.Fatalf("Dropped() = %d, want %d", tr.Dropped(), 200-capEvents)
	}
	// The ring keeps the newest events in chronological order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("events out of order at %d: %d after %d", i, evs[i].Start, evs[i-1].Start)
		}
	}
	if last := evs[len(evs)-1]; last.Req != 100 {
		t.Fatalf("newest event is req %d, want 100", last.Req)
	}
}

func TestTracerZeroDurationSpanClamped(t *testing.T) {
	tr := NewTracer(1, 0)
	tr.BeginReq(0, 0, 100)
	tr.Span("commit", "", 100, 90) // end before start must not underflow
	tr.EndReq(100)
	for _, e := range tr.Events() {
		if e.Dur > 1<<60 {
			t.Fatalf("span duration underflowed: %d", e.Dur)
		}
	}
}

func TestWriteChromeJSON(t *testing.T) {
	tr := NewTracer(1, 0)
	for i := 0; i < 10; i++ {
		runReq(tr, i, uint64(i)*2048, uint64(i)*500)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("emitted trace is not valid JSON")
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			TID  int32  `json:"tid"`
			S    string `json:"s"`
			Args struct {
				Req  uint64 `json:"req"`
				Addr string `json:"addr"`
			} `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 10*8 {
		t.Fatalf("%d trace events, want %d", len(out.TraceEvents), 10*8)
	}
	phases := map[uint64]map[string]bool{}
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Name != "commit" && e.Name != "writeback" && e.Dur == 0 {
				t.Fatalf("complete event %q without duration", e.Name)
			}
		case "i":
			if e.S != "t" {
				t.Fatalf("instant event %q without thread scope", e.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if !strings.HasPrefix(e.Args.Addr, "0x") {
			t.Fatalf("addr %q not hex-formatted", e.Args.Addr)
		}
		if phases[e.Args.Req] == nil {
			phases[e.Args.Req] = map[string]bool{}
		}
		phases[e.Args.Req][e.Name] = true
	}
	// The acceptance bar: every sampled request shows >= 5 distinct phases.
	for req, set := range phases {
		if len(set) < 5 {
			t.Fatalf("request %d has %d distinct phases, want >= 5", req, len(set))
		}
	}
	if out.OtherData["unit"] == "" {
		t.Fatal("otherData.unit missing")
	}
}

func TestWriteFlameSummary(t *testing.T) {
	tr := NewTracer(1, 0)
	for i := 0; i < 5; i++ {
		runReq(tr, 0, uint64(i)*64, uint64(i)*1000)
	}
	var buf bytes.Buffer
	if err := tr.WriteFlameSummary(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "5 requests seen, 5 sampled (1 in 1)") {
		t.Fatalf("summary header wrong:\n%s", s)
	}
	for _, phase := range []string{"req", "ctrl", "LLC", "L2", "L1", "DDR4-3200"} {
		if !strings.Contains(s, phase) {
			t.Fatalf("summary missing phase %q:\n%s", phase, s)
		}
	}
	// "req" is the covering span (200 cycles x 5), so it sorts first.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 3 || !strings.Contains(lines[2], "req") {
		t.Fatalf("widest phase not first:\n%s", s)
	}
}
