package cpu_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"baryon/internal/cpu"
	"baryon/internal/obs"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// TestTracerDoesNotPerturbSimulation pins the tracing plane's core
// guarantee: attaching a tracer (even at 1-in-1 sampling) observes the
// simulation without changing it. Every architectural output must be
// byte-identical with and without the tracer.
func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 500
	w, _ := trace.ByName("505.mcf_r")

	plain := cpu.NewRunnerSource(cfg, w, baryonFactory).Run()

	traced := cpu.NewRunnerSource(cfg, w, baryonFactory)
	tr := obs.NewTracer(1, 0)
	traced.SetTracer(tr)
	res := traced.Run()

	if res.Cycles != plain.Cycles || res.Instructions != plain.Instructions {
		t.Fatalf("tracer perturbed timing: cycles %d vs %d, instr %d vs %d",
			res.Cycles, plain.Cycles, res.Instructions, plain.Instructions)
	}
	if res.FastBytes != plain.FastBytes || res.SlowBytes != plain.SlowBytes {
		t.Fatalf("tracer perturbed traffic: fast %d vs %d, slow %d vs %d",
			res.FastBytes, plain.FastBytes, res.SlowBytes, plain.SlowBytes)
	}
	if res.FastServeRate != plain.FastServeRate || res.EnergyPJ != plain.EnergyPJ {
		t.Fatalf("tracer perturbed metrics: serve %f vs %f, energy %f vs %f",
			res.FastServeRate, plain.FastServeRate, res.EnergyPJ, plain.EnergyPJ)
	}

	if tr.Reqs() == 0 || tr.SampledReqs() != tr.Reqs() {
		t.Fatalf("tracer saw %d reqs, sampled %d (want all at 1-in-1)", tr.Reqs(), tr.SampledReqs())
	}
	// A run must produce at least one request that walked the full plane:
	// issue -> caches -> controller decision -> device -> completion.
	phases := map[uint64]map[string]bool{}
	for _, e := range tr.Events() {
		if phases[e.Req] == nil {
			phases[e.Req] = map[string]bool{}
		}
		phases[e.Req][e.Name] = true
	}
	best := 0
	for _, set := range phases {
		if len(set) > best {
			best = len(set)
		}
	}
	if best < 5 {
		t.Fatalf("deepest request has %d distinct span phases, want >= 5", best)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace JSON invalid")
	}
}

// TestResultLatencyHistograms checks the histogram summaries flow into the
// Result: the whole-plane demand histogram and the per-class controller and
// device histograms all show up with consistent counts.
func TestResultLatencyHistograms(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 500
	w, _ := trace.ByName("505.mcf_r")
	res := cpu.NewRunnerSource(cfg, w, baryonFactory).Run()

	demand, ok := res.Latency["hierarchy.lat.demand"]
	if !ok {
		t.Fatalf("no hierarchy.lat.demand summary; have %v", keys(res.Latency))
	}
	// Every post-warmup access lands in the demand histogram.
	want := uint64(cfg.AccessesPerCore * cfg.Cores)
	if demand.Count != want {
		t.Fatalf("demand count %d, want %d", demand.Count, want)
	}
	if demand.P50 <= 0 || demand.P999 < demand.P50 || float64(demand.Max) < demand.P999 {
		t.Fatalf("demand summary not ordered: %+v", demand)
	}
	// The measured window summary mirrors the same histogram.
	if res.Measured.MemLat.Count != demand.Count {
		t.Fatalf("Measured.MemLat count %d != %d", res.Measured.MemLat.Count, demand.Count)
	}
	// Device-level histograms exist for both tiers.
	for _, name := range []string{"DDR4-3200.lat.service", "NVM.lat.service"} {
		if s, ok := res.Latency[name]; !ok || s.Count == 0 {
			t.Fatalf("missing device histogram %s (have %v)", name, keys(res.Latency))
		}
	}
}

func keys(m map[string]sim.HistSummary) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRunStatusViewsAgree checks that a status published during the
// measurement phase describes one window in every view: the counter, float
// and histogram digests behind /runz and expvar equal the snapshot /metrics
// renders, and all of them exclude the warmup.
func TestRunStatusViewsAgree(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 500
	w, _ := trace.ByName("505.mcf_r")
	r := cpu.NewRunnerSource(cfg, w, baryonFactory)
	var in obs.Introspector
	r.SetIntrospector(&in, 1000)
	r.Run()

	st := in.Latest()
	if st == nil || st.Phase != "measure" {
		t.Fatalf("last published status = %+v, want the measure phase", st)
	}
	for _, c := range st.Counters {
		if want := float64(st.Snap.Get(c.Name)); c.Value != want {
			t.Errorf("counter %s: digest %.0f, snapshot %.0f", c.Name, c.Value, want)
		}
	}
	for _, f := range st.Floats {
		if want := st.Snap.GetFloat(f.Name); f.Value != want {
			t.Errorf("float %s: digest %g, snapshot %g", f.Name, f.Value, want)
		}
	}
	for _, h := range st.Hists {
		sh, ok := st.Snap.Hist(h.Name)
		if !ok || h.Summary != sh.Summary() {
			t.Errorf("histogram %s: digest %+v, snapshot %+v", h.Name, h.Summary, sh.Summary())
		}
	}
	if got, want := len(st.Counters), len(st.Snap.CounterNames()); got != want {
		t.Errorf("%d counter digests for %d snapshot counters", got, want)
	}
	const llc = "hierarchy.llcMisses"
	total := r.Controller().Stats().Get(llc)
	if window := st.Snap.Get(llc); window == 0 || window >= total {
		t.Errorf("%s: window %d, run total %d; want 0 < window < total", llc, window, total)
	}
}
