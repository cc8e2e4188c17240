package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"baryon/internal/report"
)

// writeSpec writes a JSON DesignSpec with a unique name to dir and returns
// its path. BlockBytes 0 passes load-time validation but panics in the
// factory — the poisoned-pair shape the resilient sweep must contain.
func writePoisonedSpec(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	spec := `{"name": "` + name + `", "kind": "baryon", "overrides": {"blockBytes": 0}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// parseCSV asserts the sweep output is valid CSV and returns the rows
// (header included). encoding/csv errors on ragged rows, so a truncated or
// corrupt flush fails here.
func parseCSV(t *testing.T, out []byte) [][]string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("sweep emitted invalid CSV: %v\noutput:\n%s", err, out)
	}
	if len(rows) == 0 {
		t.Fatal("sweep emitted no CSV at all")
	}
	return rows
}

func statusCounts(rows [][]string) map[string]int {
	counts := map[string]int{}
	for _, row := range rows[1:] {
		counts[row[4]]++ // status column
	}
	return counts
}

// TestSweepPanicIsolation runs a small sweep with one poisoned design: the
// healthy runs complete with ok rows, the poisoned run gets an error row,
// the per-pair error reaches stderr, and the exit status is non-zero.
func TestSweepPanicIsolation(t *testing.T) {
	spec := writePoisonedSpec(t, t.TempDir(), "Poisoned-SweepErr")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-workloads", "505.mcf_r",
		"-designs", "Simple",
		"-design-files", spec,
		"-accesses", "500",
	}, &out, &errb)
	if code == 0 {
		t.Fatalf("sweep with a poisoned design exited 0\nstderr: %s", errb.String())
	}
	rows := parseCSV(t, out.Bytes())
	counts := statusCounts(rows)
	if counts["ok"] != 1 || counts["error"] != 1 {
		t.Fatalf("status counts = %v, want 1 ok + 1 error\ncsv:\n%s", counts, out.String())
	}
	if !strings.Contains(errb.String(), "Poisoned-SweepErr") {
		t.Fatalf("stderr does not report the failed pair:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "1 ok, 1 failed, 0 cancelled") {
		t.Fatalf("stderr missing summary:\n%s", errb.String())
	}
}

// TestSweepGracefulCancellation starts a long sweep with a poisoned pair and
// a short -timeout: the command must still flush a valid partial CSV with
// the error row and cancelled rows, report the counts, and exit non-zero —
// the automated form of the mid-run SIGINT contract (main wires SIGINT to
// the same context this test cancels via the timeout).
func TestSweepGracefulCancellation(t *testing.T) {
	spec := writePoisonedSpec(t, t.TempDir(), "Poisoned-SweepCancel")
	var out, errb bytes.Buffer
	start := time.Now()
	code := run(context.Background(), []string{
		"-workloads", "505.mcf_r",
		"-designs", "Simple,UnisonCache",
		"-design-files", spec,
		"-accesses", "300000",
		"-seeds", "1,2,3",
		"-parallel", "3", // every pair of a seed starts, so the poisoned one panics before the timeout
		"-timeout", "2s",
	}, &out, &errb)
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("cancelled sweep still took %s", elapsed)
	}
	if code == 0 {
		t.Fatalf("cancelled sweep exited 0\nstderr: %s", errb.String())
	}
	rows := parseCSV(t, out.Bytes())
	counts := statusCounts(rows)
	if counts["error"] == 0 {
		t.Fatalf("poisoned pair not reported: %v\ncsv:\n%s", counts, out.String())
	}
	if counts["cancelled"] == 0 {
		t.Fatalf("no cancelled rows after timeout: %v\ncsv:\n%s", counts, out.String())
	}
	if !strings.Contains(errb.String(), "cancelled") {
		t.Fatalf("stderr missing cancellation summary:\n%s", errb.String())
	}
}

// TestSweepBundleDir checks -bundle-dir: every ok run writes one re-readable
// bundle, and a failed run writes none.
func TestSweepBundleDir(t *testing.T) {
	spec := writePoisonedSpec(t, t.TempDir(), "Poisoned-SweepBundle")
	dir := filepath.Join(t.TempDir(), "bundles")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-workloads", "505.mcf_r",
		"-designs", "Simple,Baryon",
		"-design-files", spec,
		"-accesses", "500",
		"-seeds", "1,2",
		"-bundle-dir", dir,
	}, &out, &errb)
	if code == 0 {
		t.Fatal("sweep with a poisoned design exited 0")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 2 healthy designs x 2 seeds; the poisoned pairs write nothing.
	if len(entries) != 4 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("expected 4 bundles, found %d: %v", len(entries), names)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".bundle.json") {
			t.Fatalf("unexpected file %q in bundle dir", e.Name())
		}
		b, err := report.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if b.Spec.Workload != "505.mcf_r" || b.Cycles == 0 {
			t.Fatalf("bundle %s incomplete: %+v", e.Name(), b.Spec)
		}
	}
}

// TestSweepCleanRun pins the healthy path: all rows ok, exit 0.
func TestSweepCleanRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-workloads", "505.mcf_r",
		"-designs", "Simple",
		"-accesses", "500",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("clean sweep exited %d\nstderr: %s", code, errb.String())
	}
	rows := parseCSV(t, out.Bytes())
	counts := statusCounts(rows)
	if counts["ok"] != 1 || len(counts) != 1 {
		t.Fatalf("status counts = %v, want only ok rows", counts)
	}
}

// TestSweepConcurrentBundleDirs pins that each sweep owns its -bundle-dir
// observer: two sweeps running at once in one process, with distinct
// directories and seeds, each write exactly their own bundles.
func TestSweepConcurrentBundleDirs(t *testing.T) {
	dirs := []string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	seeds := [][]uint64{{1, 2}, {3, 4}}
	codes := make([]int, len(dirs))
	errs := make([]bytes.Buffer, len(dirs))
	var wg sync.WaitGroup
	for i := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			codes[i] = run(context.Background(), []string{
				"-workloads", "505.mcf_r",
				"-designs", "Simple,Baryon",
				"-accesses", "2000",
				"-seeds", fmt.Sprintf("%d,%d", seeds[i][0], seeds[i][1]),
				"-bundle-dir", dirs[i],
			}, &out, &errs[i])
		}()
	}
	wg.Wait()
	for i, dir := range dirs {
		if codes[i] != 0 {
			t.Fatalf("sweep %d exited %d\nstderr: %s", i, codes[i], errs[i].String())
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// 2 designs x 2 seeds, every one of them this sweep's own.
		if len(entries) != 4 {
			t.Errorf("sweep %d: %d bundles in %s, want 4", i, len(entries), dir)
		}
		for _, e := range entries {
			b, err := report.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if s := b.Spec.Seed; s != seeds[i][0] && s != seeds[i][1] {
				t.Errorf("sweep %d (seeds %v): %s holds a seed-%d bundle of the other sweep", i, seeds[i], dir, s)
			}
		}
	}
}
