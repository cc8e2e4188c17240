package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// reportOf builds a report with the given allocs/op per benchmark.
func reportOf(allocs map[string]float64) *report {
	rep := &report{Benchmarks: map[string]*benchResult{}}
	for name, a := range allocs {
		rep.Benchmarks[name] = &benchResult{Runs: 1, AllocsPerOp: a}
	}
	return rep
}

// writeBaseline stores reportOf(allocs) as a baseline file and returns its
// path.
func writeBaseline(t *testing.T, allocs map[string]float64) string {
	t.Helper()
	buf, err := json.Marshal(reportOf(allocs))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckBaseline(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 1000, "BenchmarkB": 10}
	for _, tc := range []struct {
		name    string
		cur     map[string]float64
		wantErr string // "" means the gate passes
	}{
		{"within limit", map[string]float64{"BenchmarkA": 1100, "BenchmarkB": 11, "BenchmarkNew": 5}, ""},
		{"regressed", map[string]float64{"BenchmarkA": 1101, "BenchmarkB": 10}, "regressed"},
		{"missing benchmark", map[string]float64{"BenchmarkA": 1000}, "missing"},
		{"no shared benchmarks", map[string]float64{"BenchmarkOther": 1}, "shares no benchmarks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkBaseline(reportOf(tc.cur), writeBaseline(t, base), 0.10)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestReportRecordsHost checks every report carries the host's CPU count
// and GOMAXPROCS under the keys trajectory readers look for.
func TestReportRecordsHost(t *testing.T) {
	buf, err := json.Marshal(newReport("SingleRun", 5, "2x"))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int{"numcpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0)} {
		if v, ok := got[key].(float64); !ok || int(v) != want || want < 1 {
			t.Errorf("%s = %v, want %d", key, got[key], want)
		}
	}
}
