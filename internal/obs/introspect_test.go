package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"baryon/internal/sim"
)

func sampleStatus() *RunStatus {
	st := sim.NewStats()
	st.Counter("baryon.servedFast").Add(9000)
	st.Float("llc.mpki").Add(2.5)
	h := st.Histogram("hierarchy.lat.demand")
	for i := uint64(0); i < 100; i++ {
		h.Observe(100 + i)
	}
	rs := &RunStatus{
		Workload: "505.mcf_r", Design: "Baryon", Phase: "measure",
		TargetAccesses: 1000, Accesses: 250, Instructions: 800, Cycles: 1200,
		CoreClocks: []uint64{1200, 1199},
		UpdatedAt:  time.Unix(1700000000, 0).UTC(),
	}
	StatusFromStats(st.Snapshot(), rs)
	return rs
}

func TestStatusFromStats(t *testing.T) {
	rs := sampleStatus()
	if len(rs.Counters) != 1 || rs.Counters[0].Name != "baryon.servedFast" || rs.Counters[0].Value != 9000 {
		t.Fatalf("counters: %+v", rs.Counters)
	}
	if len(rs.Floats) != 1 || rs.Floats[0].Value != 2.5 {
		t.Fatalf("floats: %+v", rs.Floats)
	}
	if len(rs.Hists) != 1 || rs.Hists[0].Summary.Count != 100 || rs.Hists[0].Summary.Max != 199 {
		t.Fatalf("hists: %+v", rs.Hists)
	}
}

func TestIntrospectorPublishLatest(t *testing.T) {
	var in Introspector
	if in.Latest() != nil {
		t.Fatal("Latest() non-nil before first publish")
	}
	first := sampleStatus()
	in.Publish(first)
	second := sampleStatus()
	second.Accesses = 500
	in.Publish(second)
	if got := in.Latest(); got != second {
		t.Fatalf("Latest() = %p, want newest publish %p", got, second)
	}

	// Concurrent readers against a publisher must be race-free (run with
	// -race): readers only ever see complete published snapshots.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if st := in.Latest(); st != nil && st.Workload != "505.mcf_r" {
					panic("torn read")
				}
			}
		}()
	}
	for j := 0; j < 1000; j++ {
		in.Publish(second)
	}
	wg.Wait()
}

func TestDebugMuxRunz(t *testing.T) {
	var in Introspector
	mux := NewDebugMux(&in)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/runz", nil))
	if !strings.Contains(rec.Body.String(), "no run status published yet") {
		t.Fatalf("/runz before publish:\n%s", rec.Body.String())
	}

	in.Publish(sampleStatus())
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/runz", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"workload 505.mcf_r", "design Baryon", "phase measure",
		"250 / 1000 accesses (25.0%)", "core 0  1200",
		"hierarchy.lat.demand", "baryon.servedFast",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/runz missing %q:\n%s", want, body)
		}
	}

	// expvar carries the same status as JSON under "baryon.run".
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	var rs RunStatus
	if err := json.Unmarshal(vars["baryon.run"], &rs); err != nil {
		t.Fatalf("baryon.run: %v", err)
	}
	if rs.Workload != "505.mcf_r" || rs.Accesses != 250 {
		t.Fatalf("baryon.run = %+v", rs)
	}

	// pprof index responds under /debug/pprof/.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/ status %d", rec.Code)
	}
}
