package experiment

import (
	"testing"

	"baryon/internal/config"
	"baryon/internal/trace"
)

func TestBudgetPaperScale(t *testing.T) {
	b := Budget(config.PaperScale())
	if b.StageTagArrayBytes != 448*1024 {
		t.Fatalf("stage tag %d", b.StageTagArrayBytes)
	}
	if b.TableFraction < 0.0005 || b.TableFraction > 0.0015 {
		t.Fatalf("table fraction %f, want ~0.001", b.TableFraction)
	}
	if b.TotalSRAMBytes < 480*1024 || b.TotalSRAMBytes > 512*1024 {
		t.Fatalf("total SRAM %d, want ~488 kB (Section III-B)", b.TotalSRAMBytes)
	}
}

func TestRemapCacheSweepMonotonicIsh(t *testing.T) {
	cfg := quickConfig()
	rows, _ := RemapCacheSweep(Runner{}, cfg)
	// Per workload, the biggest cache must not have a (meaningfully) lower
	// hit rate than the smallest.
	small := map[string]float64{}
	big := map[string]float64{}
	for _, r := range rows {
		switch r.Sets {
		case 32:
			small[r.Workload] = r.HitRate
		case 256:
			big[r.Workload] = r.HitRate
		}
	}
	for w, s := range small {
		if big[w] < s-0.02 {
			t.Fatalf("%s: 256-set hit rate %.3f below 32-set %.3f", w, big[w], s)
		}
	}
}

func TestCompressorComparisonRuns(t *testing.T) {
	cfg := quickConfig()
	rows, tab := CompressorComparison(Runner{}, cfg)
	if len(rows) != len(trace.Representative()) {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		// C-Pack adds an algorithm to a best-of selection: CFs move a
		// little, performance stays in a sane band.
		if r.Speedup < 0.7 || r.Speedup > 1.4 {
			t.Fatalf("%s: C-Pack speedup %.2f out of band", r.Workload, r.Speedup)
		}
		if r.MeanCFWithCPack < r.MeanCFDefault-0.1 {
			t.Fatalf("%s: adding C-Pack reduced mean CF %.2f -> %.2f",
				r.Workload, r.MeanCFDefault, r.MeanCFWithCPack)
		}
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
}

func TestAssocSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	cfg := quickConfig()
	rows, _ := AssocSweep(Runner{}, cfg)
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Fatalf("%s@%s: speedup %.3f", r.Workload, r.Point, r.Speedup)
		}
	}
}

func TestSubBlockSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	cfg := quickConfig()
	rows, _ := SubBlockSweep(Runner{}, cfg)
	points := map[string]bool{}
	for _, r := range rows {
		points[r.Point] = true
		if r.Speedup <= 0 {
			t.Fatalf("%s@%s: speedup %.3f", r.Workload, r.Point, r.Speedup)
		}
	}
	for _, p := range []string{"64B", "128B", "256B"} {
		if !points[p] {
			t.Fatalf("missing point %s", p)
		}
	}
}
