package report

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/trace"
)

func quickConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1200
	cfg.WarmupAccessesPerCore = 300
	cfg.Seed = 1
	return cfg
}

func buildBundle(t *testing.T, cfg config.Config, workload, design string) Bundle {
	t.Helper()
	w, ok := trace.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	spec, ok := experiment.Lookup(design)
	if !ok {
		t.Fatalf("unknown design %q", design)
	}
	res, err := experiment.RunPair(context.Background(), experiment.Pair{Cfg: cfg, Workload: w, Design: design})
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(spec, cfg, workload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(key, res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBundleDeterminism pins the acceptance contract: two identical runs
// produce byte-identical bundle files with equal spec hashes.
func TestBundleDeterminism(t *testing.T) {
	cfg := quickConfig()
	a := buildBundle(t, cfg, "505.mcf_r", "Baryon")
	b := buildBundle(t, cfg, "505.mcf_r", "Baryon")
	if a.SpecHash != b.SpecHash {
		t.Fatalf("spec hashes differ: %s vs %s", a.SpecHash, b.SpecHash)
	}
	if !strings.HasPrefix(a.SpecHash, "sha256:") || len(a.SpecHash) != len("sha256:")+64 {
		t.Fatalf("malformed spec hash %q", a.SpecHash)
	}
	ba, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("identical runs produced different bundle bytes (%d vs %d bytes)", len(ba), len(bb))
	}
	// And a different seed changes the hash (the key actually covers it).
	cfg2 := cfg
	cfg2.Seed = 2
	c := buildBundle(t, cfg2, "505.mcf_r", "Baryon")
	if c.SpecHash == a.SpecHash {
		t.Fatal("seed change did not change the spec hash")
	}
}

// TestBundleMeasurementWindow checks the bundle's counter map is the
// measurement-window delta: with warmup on, the summed device traffic
// counters equal the headline Fast/SlowBytes (which exclude warmup).
func TestBundleMeasurementWindow(t *testing.T) {
	b := buildBundle(t, quickConfig(), "505.mcf_r", "Baryon")
	var devBytes uint64
	for name, v := range b.Counters {
		if strings.HasSuffix(name, ".bytesRead") || strings.HasSuffix(name, ".bytesWritten") {
			if dev := strings.SplitN(name, ".", 2)[0]; !strings.Contains(dev, ".") {
				devBytes += v
			}
		}
	}
	if want := b.FastBytes + b.SlowBytes; devBytes != want {
		t.Fatalf("bundle device counters sum to %d, headline traffic is %d — counters are not the measurement window", devBytes, want)
	}
	if b.Cycles == 0 || len(b.Counters) == 0 || len(b.Hists) == 0 {
		t.Fatalf("bundle incomplete: cycles=%d counters=%d hists=%d", b.Cycles, len(b.Counters), len(b.Hists))
	}
	if b.Spec.Run.WarmupAccessesPerCore == nil || *b.Spec.Run.WarmupAccessesPerCore != 300 {
		t.Fatalf("run-shape key missing warmup: %+v", b.Spec.Run)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := buildBundle(t, quickConfig(), "505.mcf_r", "Simple")
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(b.Spec))
	if err := WriteFile(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecHash != b.SpecHash || got.Cycles != b.Cycles || len(got.Counters) != len(b.Counters) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Re-marshalling a loaded bundle reproduces the original bytes.
	orig, _ := b.MarshalCanonical()
	reread, _ := got.MarshalCanonical()
	if !bytes.Equal(orig, reread) {
		t.Fatal("round-tripped bundle marshals differently")
	}

	// Corrupt schema and unknown fields fail loudly.
	data, _ := os.ReadFile(path)
	bad := bytes.Replace(data, []byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	badPath := filepath.Join(dir, "bad.bundle.json")
	os.WriteFile(badPath, bad, 0o644)
	if _, err := ReadFile(badPath); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
	unk := bytes.Replace(data, []byte(`"schema": 1`), []byte(`"schema": 1, "wallClock": "2026-01-01"`), 1)
	os.WriteFile(badPath, unk, 0o644)
	if _, err := ReadFile(badPath); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestDiffSelfClean(t *testing.T) {
	b := buildBundle(t, quickConfig(), "505.mcf_r", "Baryon")
	r := Diff(b, b, Tolerance{})
	if !r.Clean() {
		t.Fatalf("self-diff not clean: %+v", r.Findings)
	}
	if !r.SpecMatch {
		t.Fatal("self-diff reports spec mismatch")
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	a := buildBundle(t, quickConfig(), "505.mcf_r", "Baryon")
	b := a
	b.Counters = make(map[string]uint64, len(a.Counters))
	for k, v := range a.Counters {
		b.Counters[k] = v
	}
	b.Counters["hierarchy.llcMisses"] += 100
	r := Diff(a, b, Tolerance{})
	if r.Clean() {
		t.Fatal("injected counter regression not detected")
	}
	found := false
	for _, f := range r.Findings {
		if f.Kind == "counter" && f.Key == "hierarchy.llcMisses" {
			found = true
		}
	}
	if !found {
		t.Fatalf("regression not attributed to the tampered counter: %+v", r.Findings)
	}

	// The same change passes under a generous tolerance.
	if r := Diff(a, b, Tolerance{CounterRel: 0.5, PctRel: 0.5}); !r.Clean() {
		t.Fatalf("tolerance not applied: %+v", r.Findings)
	}
}

func TestDiffMissingMetric(t *testing.T) {
	a := buildBundle(t, quickConfig(), "505.mcf_r", "Simple")
	b := a
	b.Counters = make(map[string]uint64, len(a.Counters))
	for k, v := range a.Counters {
		b.Counters[k] = v
	}
	delete(b.Counters, "hierarchy.llcMisses")
	r := Diff(a, b, Tolerance{})
	if r.Clean() {
		t.Fatal("missing counter not detected (should diff against zero)")
	}
}

// TestObservePairs runs a small batch through the experiment pool with the
// bundle observer installed and checks every successful pair wrote its
// bundle, re-readable and pairable.
func TestObservePairs(t *testing.T) {
	dir := t.TempDir()
	var errBuf bytes.Buffer
	observe, err := ObservePairs(dir, &errBuf)
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickConfig()
	w, _ := trace.ByName("505.mcf_r")
	pairs := []experiment.Pair{
		{Cfg: cfg, Workload: w, Design: "Simple"},
		{Cfg: cfg, Workload: w, Design: "Baryon"},
	}
	for _, pr := range (experiment.Runner{Observe: observe}).Run(pairs) {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
	}
	if errBuf.Len() > 0 {
		t.Fatalf("observer reported errors:\n%s", errBuf.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected 2 bundles, found %d", len(entries))
	}
	for _, e := range entries {
		b, err := ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if b.Spec.Workload != "505.mcf_r" {
			t.Fatalf("bundle %s has workload %q", e.Name(), b.Spec.Workload)
		}
	}
}
