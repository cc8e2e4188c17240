// Command benchjson runs the repository's hot-path benchmarks under a fixed
// iteration plan (-count repeats at a pinned -benchtime, so runs are
// comparable across machines and commits), aggregates the repeats into one
// JSON summary, and optionally enforces an allocation-regression threshold
// against a committed baseline. CI runs it on every push and uploads the
// summary as an artifact, which makes the benchmark trajectory of the hot
// path machine-checked rather than eyeballed.
//
//	go run ./cmd/benchjson -out BENCH_singlerun.json \
//	    -baseline BENCH_baseline.json -threshold 0.10
//
// Aggregation: ns/op, B/op and allocs/op take the minimum across repeats
// (the least-noise estimator for a deterministic workload — every repeat
// does identical work, so the minimum is the run least disturbed by the
// machine). Custom b.ReportMetric values take the mean, since metrics like
// speedup-vs-serial are ratios that wobble in both directions.
//
// The threshold check compares allocs/op only: allocation counts are exact
// for a deterministic benchmark, so a >10% delta is a real regression, not
// scheduler noise — unlike wall-clock time, which shared CI runners make
// untrustworthy as a hard gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchResult aggregates one benchmark's repeats.
type benchResult struct {
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// report is the JSON document benchjson emits and compares against. NumCPU
// and GOMAXPROCS record the machine the numbers were taken on, since wall
// time is only comparable between runs on the same host shape.
type report struct {
	Bench      string                  `json:"bench"`
	Count      int                     `json:"count"`
	Benchtime  string                  `json:"benchtime"`
	NumCPU     int                     `json:"numcpu"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Benchmarks map[string]*benchResult `json:"benchmarks"`
}

// newReport starts an empty report for one benchjson run on this host. The
// go test child inherits this process's environment, so it runs with the
// same GOMAXPROCS.
func newReport(bench string, count int, benchtime string) *report {
	return &report{
		Bench: bench, Count: count, Benchtime: benchtime,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]*benchResult{},
	}
}

func main() {
	benchRe := flag.String("bench", "SingleRun", "benchmark regexp passed to go test -bench")
	count := flag.Int("count", 5, "repeats per benchmark (go test -count)")
	benchtime := flag.String("benchtime", "2x", "fixed iteration budget (go test -benchtime)")
	pkg := flag.String("pkg", ".", "package holding the benchmarks")
	out := flag.String("out", "BENCH_singlerun.json", "output JSON path")
	baseline := flag.String("baseline", "", "baseline JSON to check allocs/op against (optional)")
	threshold := flag.Float64("threshold", 0.10, "allowed fractional allocs/op regression vs baseline")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *benchRe, "-benchmem",
		"-count", strconv.Itoa(*count), "-benchtime", *benchtime, *pkg)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	os.Stdout.Write(outBytes)
	if err != nil {
		fatalf("go test -bench failed: %v", err)
	}

	rep := newReport(*benchRe, *count, *benchtime)
	for _, line := range strings.Split(string(outBytes), "\n") {
		name, res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		mergeResult(rep.Benchmarks, name, res)
	}
	if len(rep.Benchmarks) == 0 {
		fatalf("no benchmark lines matched %q", *benchRe)
	}
	finishMeans(rep.Benchmarks)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("writing %s: %v", *out, err)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks x %d runs)\n", *out, len(rep.Benchmarks), *count)

	if *baseline != "" {
		if err := checkBaseline(rep, *baseline, *threshold); err != nil {
			fatalf("%v", err)
		}
	}
}

// parseBenchLine parses one "BenchmarkName N v1 unit1 v2 unit2 ..." result
// line; non-benchmark lines report ok=false. The -P GOMAXPROCS suffix is
// stripped so names are stable across machines.
func parseBenchLine(line string) (string, *benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res := &benchResult{Runs: 1, Metrics: map[string]float64{}}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			res.Metrics[unit] = v
		}
		seen = true
	}
	return name, res, seen
}

// mergeResult folds one repeat into the aggregate: minima for the standard
// units, running sums for custom metrics (divided into means later).
func mergeResult(all map[string]*benchResult, name string, r *benchResult) {
	agg, ok := all[name]
	if !ok {
		all[name] = r
		return
	}
	agg.Runs++
	agg.NsPerOp = minF(agg.NsPerOp, r.NsPerOp)
	agg.BytesPerOp = minF(agg.BytesPerOp, r.BytesPerOp)
	agg.AllocsPerOp = minF(agg.AllocsPerOp, r.AllocsPerOp)
	for k, v := range r.Metrics {
		agg.Metrics[k] += v
	}
}

func finishMeans(all map[string]*benchResult) {
	for _, agg := range all {
		for k := range agg.Metrics {
			agg.Metrics[k] /= float64(agg.Runs)
		}
		if len(agg.Metrics) == 0 {
			agg.Metrics = nil
		}
	}
}

func minF(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

// checkBaseline fails if any baseline benchmark is missing from this run or
// regressed its allocs/op by more than threshold. A missing benchmark is an
// error so that deleting or renaming one cannot silently drop it from the
// gate. The +0.5 slack keeps zero- and near-zero-allocation baselines from
// tripping on a single stray object.
func checkBaseline(cur *report, path string, threshold float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline %s: %v", path, err)
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %v", path, err)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	checked, failed, missing := 0, 0, 0
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			missing++
			fmt.Fprintf(os.Stderr, "benchjson: %s is in baseline %s but this run did not produce it\n", name, path)
			continue
		}
		checked++
		got, limit := c.AllocsPerOp, b.AllocsPerOp*(1+threshold)+0.5
		if got > limit {
			failed++
			fmt.Fprintf(os.Stderr, "benchjson: %s allocs/op regressed: %.0f > limit %.1f (baseline %.0f)\n",
				name, got, limit, b.AllocsPerOp)
		} else {
			fmt.Printf("benchjson: %s allocs/op %.0f within limit %.1f (baseline %.0f)\n",
				name, got, limit, b.AllocsPerOp)
		}
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s shares no benchmarks with this run", path)
	}
	if missing > 0 {
		return fmt.Errorf("%d baseline benchmark(s) missing from this run", missing)
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed allocs/op beyond %.0f%%", failed, threshold*100)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
