package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 && !supports(c.n, c.want) {
			t.Errorf("supports(%d, %v) = false for the level tailPercentile chose", c.n, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		got, n := percentile(append([]float64(nil), vs...), c.p)
		if got != c.want || n != 100 {
			t.Errorf("percentile(p%v) = %v over %d samples, want %v over 100", c.p, got, n, c.want)
		}
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("percentile of no samples = %v, %d; want NaN, 0", v, n)
	}
	if med(nil) != 0 {
		t.Errorf("med(nil) = %v, want 0", med(nil))
	}
}

func TestDurHistQuantile(t *testing.T) {
	var h durHist
	for ns := uint64(1); ns <= 100000; ns++ {
		h.add(ns)
	}
	for _, p := range []float64{50, 90, 99} {
		exact := p / 100 * 100000
		got := float64(h.quantile(p))
		if got > exact || got < exact*0.93 {
			t.Errorf("p%v = %v, want within 7%% below %v", p, got, exact)
		}
	}
	for ns := uint64(0); ns < 1<<20; ns = ns*3 + 1 {
		if b := h.bucket(ns); h.lower(b) > ns || (b+1 < len(h.counts) && h.lower(b+1) <= ns) {
			t.Fatalf("%d ns lands in bucket %d = [%d, %d)", ns, b, h.lower(b), h.lower(b+1))
		}
	}
}

func TestBestRuns(t *testing.T) {
	b := newBestRuns()
	b.observe(0, 1000, 4e6) // 4 ms
	b.observe(0, 1000, 2e6)
	b.observe(1, 3000, 2e6)
	b.observe(1, 3000, 9e6)
	if got := b.throughput(); got != 1e6 {
		t.Errorf("throughput = %v, want 4000 accesses / 4 ms = 1e6", got)
	}
}

// TestMetricNames checks every metric name against the allowed shape and
// that BENCHMARK.json declares exactly the metrics and units run prints.
func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.name) || len(m.name) > 64 {
				t.Errorf("metric name %q does not match %s", m.name, metricName)
			}
			if seen[m.name] {
				t.Errorf("metric %q declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, bad := range []string{"", "a b", "p99/ms", "x\n"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the benchmark prints %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"baryon/internal/hybrid.(*Dir[go.shape.struct { baryon/internal/cache.dirty bool }]).Lookup (inline)": "cache",
		"baryon/internal/hybrid.(*Dir[go.shape.uint64]).Victim":                                               "hybrid",
		"baryon/internal/hybrid.(*Engine).Migrate":                                                            "hybrid",
		"baryon/internal/compress/pipeline.(*Arena).Run":                                                      "pipeline",
		"baryon/internal/compress.(*FPC).SizeAtMost":                                                          "compress",
		"runtime.futex": "runtime",
		"baryon/internal/cpu.(*Runner).runWindow": "cpu",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldTop(t *testing.T) {
	top := []byte(`File: perfbench
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.90s 45.00%  baryon/internal/hybrid.(*Dir[go.shape.struct { baryon/internal/cache.dirty bool }]).Lookup (inline)
     0.60s 30.00% 70.00%      0.60s 30.00%  runtime.futex
     0.40s 20.00% 90.00%      2s   100%  baryon/internal/cpu.(*Runner).runWindow
     0.20s 10.00%   100%      0.20s 10.00%  baryon/internal/cache.(*Hierarchy).Access
`)
	got, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 0.5, "runtime": 0.3, "cpu": 0.2}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := foldTop([]byte("no rows\n")); err == nil {
		t.Error("foldTop accepted output without rows")
	}
}
