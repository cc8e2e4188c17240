package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"baryon/internal/config"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the experiment golden file")

// goldenConfig is the fixed configuration behind the golden file: small
// enough for test time, large enough that every design sees capacity
// pressure. It must never change, or the golden comparison loses its
// meaning as a cross-refactor byte-identity check.
func goldenConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 2000
	cfg.Seed = 1
	return cfg
}

// goldenTables renders the representative subset of the cmd/experiments
// output that the golden file pins down: the static Table I plus the three
// figure families that read counters through every layer of the metrics
// plane (hierarchy serve counters, device traffic/energy, controller CFs).
func goldenTables() []byte {
	cfg := goldenConfig()
	var buf bytes.Buffer
	for _, run := range []func() *Table{
		func() *Table { return TableI() },
		func() *Table { _, t := Fig9(Runner{}, cfg); return t },
		func() *Table { _, t := Fig11(Runner{}, cfg); return t },
		func() *Table { _, t := Fig12(Runner{}, cfg); return t },
		func() *Table { _, t := Energy(Runner{}, cfg); return t },
	} {
		run().Render(&buf)
	}
	return buf.Bytes()
}

// TestExperimentTablesGolden locks the default-config experiment output:
// with warmup disabled and epochs off, the tables must stay byte-identical
// across refactors of the statistics plane. Regenerate deliberately with
//
//	go test ./internal/experiment -run Golden -update-golden
func TestExperimentTablesGolden(t *testing.T) {
	path := filepath.Join("testdata", "tables_quick.golden")
	got := goldenTables()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		n := len(gl)
		if len(wl) < n {
			n = len(wl)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("experiment tables diverge from golden at line %d:\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("experiment tables diverge from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}
