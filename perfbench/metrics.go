package main

import (
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"sort"
	"time"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported value with its unit and, for percentiles and
// medians, the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// metricSet holds a run's metrics by name.
type metricSet struct{ m map[string]metric }

func newMetrics() *metricSet { return &metricSet{m: make(map[string]metric)} }

// set records a metric; samples is 0 for values that are not a statistic
// over samples (counts, ratios of totals).
func (ms *metricSet) set(name string, value float64, unit string, samples int) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	ms.m[name] = metric{Value: value, Unit: unit, samples: samples}
}

// tailLevels are the percentiles tailPercentile picks from, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailLevels that has at least ten of
// n samples beyond it, and 0 when n is too small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// supports reports whether n samples put at least ten beyond percentile p
// (with slack for p's decimal digits, which float64 cannot hold exactly).
func supports(n int, p float64) bool { return float64(n)*(100-p)/100 >= 10-1e-9 }

// percentile returns the nearest-rank p-th percentile of vs (which it
// sorts) and the sample count; NaN for an empty slice.
func percentile(vs []float64, p float64) (float64, int) {
	n := len(vs)
	if n == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(vs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return vs[rank-1], n
}

// median is percentile(vs, 50).
func median(vs []float64) float64 {
	v, _ := percentile(append([]float64(nil), vs...), 50)
	return v
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durHist is a log-linear histogram of nanosecond durations: 16 linear
// sub-buckets per power of two, so any quantile is within about 6% of the
// exact value. It keeps per-call timing cheap on paths called millions of
// times.
type durHist struct {
	counts [64 * 16]uint64
	n      uint64
}

func (h *durHist) bucket(ns uint64) int {
	if ns < 16 {
		return int(ns)
	}
	e := bits.Len64(ns) - 5 // ns>>e is in [16, 32)
	return (e+1)*16 + int(ns>>e) - 16
}

func (h *durHist) lower(b int) uint64 {
	if b < 16 {
		return uint64(b)
	}
	e := b/16 - 1
	return uint64(16+b%16) << e
}

func (h *durHist) add(ns uint64) {
	h.counts[h.bucket(ns)]++
	h.n++
}

// quantile returns the lower edge of the bucket holding the p-th
// percentile (0 for an empty histogram).
func (h *durHist) quantile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return h.lower(b)
		}
	}
	return h.lower(len(h.counts) - 1)
}

// bestRuns keeps each job's fastest run. A simulation is deterministic, so
// its repeats do identical work and differ only by what else the host was
// doing; the fastest repeat is the least disturbed estimate of its cost.
type bestRuns struct {
	acc  map[int]uint64
	best map[int]time.Duration
}

func newBestRuns() *bestRuns {
	return &bestRuns{acc: make(map[int]uint64), best: make(map[int]time.Duration)}
}

// observe records a run of job i that simulated acc accesses in d.
func (b *bestRuns) observe(i int, acc uint64, d time.Duration) {
	if old, ok := b.best[i]; !ok || d < old {
		b.best[i] = d
	}
	b.acc[i] = acc
}

// throughput is the jobs' accesses per second of their fastest runs.
func (b *bestRuns) throughput() float64 {
	var acc uint64
	var d time.Duration
	for i, best := range b.best {
		acc += b.acc[i]
		d += best
	}
	if d <= 0 {
		return 0
	}
	return float64(acc) / d.Seconds()
}
