package report

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"baryon/internal/experiment"
	"baryon/internal/trace"
)

// TestLegacyCompressWorkersSpec pins that a design file written while the
// retired "compressWorkers" override existed still loads and runs, that the
// ignored value stays out of the spec hash, and that every other unknown
// override is still rejected.
func TestLegacyCompressWorkersSpec(t *testing.T) {
	path := filepath.Join("testdata", "design_legacy_compress_workers.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := experiment.LoadSpecFile(path)
	if err != nil {
		t.Fatalf("legacy design file rejected: %v", err)
	}

	without := strings.Replace(string(raw), `"compressWorkers": 4,`, "", 1)
	if without == string(raw) {
		t.Fatal("testdata no longer carries compressWorkers")
	}
	var plain experiment.DesignSpec
	dec := json.NewDecoder(strings.NewReader(without))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&plain); err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	hash := func(s experiment.DesignSpec) string {
		t.Helper()
		k, err := Key(s, cfg, "505.mcf_r")
		if err != nil {
			t.Fatal(err)
		}
		h, err := k.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if got, want := hash(spec), hash(plain); got != want {
		t.Fatalf("compressWorkers reached the spec hash: %s, want %s", got, want)
	}

	w, _ := trace.ByName("505.mcf_r")
	res, err := experiment.RunPair(context.Background(), experiment.Pair{Cfg: cfg, Workload: w, Design: spec.Name})
	if err != nil {
		t.Fatalf("running %s: %v", spec.Name, err)
	}
	if res.Cycles == 0 {
		t.Fatalf("%s: empty run", spec.Name)
	}

	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(strings.Replace(string(raw), "compressWorkers", "compressWorkerz", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.LoadSpecFile(typo); err == nil {
		t.Fatal("LoadSpecFile accepted an unknown override next to the legacy one")
	}
}
