package experiment

import (
	"fmt"

	"baryon/internal/config"
	"baryon/internal/metadata"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// The experiments in this file go beyond the paper's figures: they cover
// the discussion points of Section III-F (higher associativities), the
// sub-block size trade-off beyond the two points the paper evaluates, the
// remap cache sizing claim (">90% hit rates" with 32 kB), and the
// orthogonal-compressor claim (Section III-B: "alternative schemes can also
// be used") via the optional C-Pack algorithm.

// AssocSweep sweeps the fast-memory associativity (the paper fixes 4 and
// discusses higher associativities in Section III-F; fully-associative is
// the Baryon-FA variant of Fig. 10).
func AssocSweep(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	points := []string{"2", "4", "8", "FA"}
	return sweepTable(r, cfg,
		"Extra: fast-memory associativity (Section III-F discussion)",
		[]string{"higher associativity reduces conflicts at higher metadata cost"},
		points,
		func(c *config.Config, p string) {
			if p == "FA" {
				c.FullyAssociative = true
				return
			}
			fmt.Sscanf(p, "%d", &c.Assoc)
		},
		"4")
}

// SubBlockSweep sweeps the sub-block size: the paper evaluates 256 B
// (default) and 64 B (Baryon-64B); 128 B completes the trade-off curve.
// Geometry keeps eight sub-blocks per block, so the block size scales too.
func SubBlockSweep(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	points := []string{"64B", "128B", "256B"}
	return sweepTable(r, cfg,
		"Extra: sub-block size trade-off (Section III-B)",
		[]string{"smaller sub-blocks reduce overfetch, larger amortise metadata;",
			"the paper picks 256 B; xz-like low-locality workloads prefer 64 B"},
		points,
		func(c *config.Config, p string) {
			switch p {
			case "64B":
				c.BlockBytes, c.SubBlockBytes = 512, 64
			case "128B":
				c.BlockBytes, c.SubBlockBytes = 1024, 128
			case "256B":
				c.BlockBytes, c.SubBlockBytes = 2048, 256
			}
		},
		"256B")
}

// CPackRow compares the default FPC+BDI pairing against adding C-Pack.
type CPackRow struct {
	Workload        string
	Speedup         float64 // with C-Pack, relative to FPC+BDI
	MeanCFDefault   float64
	MeanCFWithCPack float64
}

// CompressorComparison evaluates the orthogonal-compressor claim: adding
// C-Pack to the best-of selection should shift CFs slightly without
// changing the design's behaviour.
func CompressorComparison(r Runner, cfg config.Config) ([]CPackRow, *Table) {
	var rows []CPackRow
	t := &Table{
		Title:  "Extra: compressor choice (FPC+BDI vs FPC+BDI+C-Pack)",
		Header: []string{"workload", "speedup", "meanCF", "meanCF+cpack"},
		Notes:  []string{"the paper: exact algorithm choices are orthogonal to the design"},
	}
	c2 := cfg
	c2.UseCPack = true
	workloads := trace.Representative()
	pairs := make([]Pair, 0, 2*len(workloads))
	for _, w := range workloads {
		pairs = append(pairs,
			Pair{Cfg: cfg, Workload: w, Design: DesignBaryon},
			Pair{Cfg: c2, Workload: w, Design: DesignBaryon})
	}
	results := r.mustRun(pairs)
	for wi, w := range workloads {
		base, with := results[2*wi], results[2*wi+1]
		row := CPackRow{
			Workload:        w.Name,
			Speedup:         float64(base.Cycles) / float64(with.Cycles),
			MeanCFDefault:   base.MeanRangeCF,
			MeanCFWithCPack: with.MeanRangeCF,
		}
		rows = append(rows, row)
		t.AddRow(w.Name, f2(row.Speedup), f2(row.MeanCFDefault), f2(row.MeanCFWithCPack))
	}
	return rows, t
}

// RemapCacheRow reports one remap-cache configuration's hit rate.
type RemapCacheRow struct {
	Workload string
	Sets     int
	HitRate  float64
}

// RemapCacheSweep validates the Section III-B sizing claim: the 32 kB remap
// cache (256 sets x 8 ways) achieves typical hit rates over 90%; smaller
// caches degrade.
func RemapCacheSweep(r Runner, cfg config.Config) ([]RemapCacheRow, *Table) {
	var rows []RemapCacheRow
	t := &Table{
		Title:  "Extra: remap cache sizing (Section III-B: >90% hit rates at 32 kB)",
		Header: []string{"workload", "sets=32", "sets=64", "sets=128", "sets=256"},
	}
	setPoints := []int{32, 64, 128, 256}
	workloads := trace.Representative()
	pairs := make([]Pair, 0, len(workloads)*len(setPoints))
	for _, w := range workloads {
		for _, sets := range setPoints {
			c := cfg
			c.RemapCacheSets = sets
			pairs = append(pairs, Pair{Cfg: c, Workload: w, Design: DesignBaryon})
		}
	}
	results := r.mustRun(pairs)
	for wi, w := range workloads {
		cells := []string{w.Name}
		for si, sets := range setPoints {
			hr := results[wi*len(setPoints)+si].RemapCacheHitRate
			rows = append(rows, RemapCacheRow{Workload: w.Name, Sets: sets, HitRate: hr})
			cells = append(cells, pct(hr))
		}
		t.AddRow(cells...)
	}
	return rows, t
}

// SlowMemSweep evaluates Baryon's sensitivity to the slow-memory
// technology: the paper's Table I NVM versus Optane-like and PCM-like
// presets. The speed gap between the tiers is the resource Baryon manages,
// so a slower bottom tier should widen its absolute cycle counts while the
// mechanisms stay effective.
func SlowMemSweep(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	points := []string{"nvm", "optane", "pcm"}
	return sweepTable(r, cfg,
		"Extra: slow-memory technology sensitivity",
		[]string{"values are speedups relative to the Table I NVM (slower devices < 1)"},
		points,
		func(c *config.Config, p string) { c.SlowMemory = p },
		"nvm")
}

// PrefetchAblation toggles the memory-to-LLC prefetching of Section III-E
// (installing decompression by-products in the LLC), which the paper
// credits with up to 5% LLC hit-rate improvement.
func PrefetchAblation(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	points := []string{"prefetch-on", "prefetch-off"}
	return sweepTable(r, cfg,
		"Extra: memory-to-LLC prefetch ablation (Section III-E)",
		[]string{"paper: bandwidth-free prefetch raises LLC hit rate by up to 5%"},
		points,
		func(c *config.Config, p string) { c.NoLLCPrefetch = p == "prefetch-off" },
		"prefetch-on")
}

// DDRFidelitySweep compares the busy-until fast-memory model against the
// protocol-level DDR4 engine (tRCD/tRP/tFAW/refresh): the shape of the
// results should be model-independent, which this sweep lets users verify.
func DDRFidelitySweep(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	points := []string{"busy-until", "protocol"}
	return sweepTable(r, cfg,
		"Extra: fast-memory timing-model fidelity",
		[]string{"speedups relative to the busy-until model; shape should hold across models"},
		points,
		func(c *config.Config, p string) { c.DetailedDDR = p == "protocol" },
		"busy-until")
}

// OSvsHWRow compares the OS-paging baseline against the hardware designs.
type OSvsHWRow struct {
	Workload string
	Speedup  map[string]float64 // over OSPaging
}

// OSvsHW quantifies the Section II-A argument for hardware-based
// management: OS page migration adapts slowly (epochs), at coarse
// granularity (4 kB), and with software overheads, so the hardware designs
// should beat it broadly.
func OSvsHW(r Runner, cfg config.Config) ([]OSvsHWRow, *Table) {
	designs := []string{DesignOSPaging, DesignUnison, DesignBaryon}
	var rows []OSvsHWRow
	t := &Table{
		Title:  "Extra: OS-based vs hardware-based management (Section II-A)",
		Header: []string{"workload", "OSPaging", "UnisonCache", "Baryon"},
		Notes:  []string{"speedups over the OS-paging baseline"},
	}
	workloads := trace.Representative()
	grid := r.runGrid(cfg, workloads, designs)
	for wi, w := range workloads {
		row := OSvsHWRow{Workload: w.Name, Speedup: map[string]float64{}}
		var base float64
		cells := []string{w.Name}
		for di, d := range designs {
			res := grid[wi][di]
			if d == DesignOSPaging {
				base = float64(res.Cycles)
			}
			row.Speedup[d] = base / float64(res.Cycles)
			cells = append(cells, f2(row.Speedup[d]))
		}
		rows = append(rows, row)
		t.AddRow(cells...)
	}
	return rows, t
}

// MetadataBudget computes the dual-format storage accounting of Section
// III-B/C for an arbitrary configuration, exposed for tests and tools.
type MetadataBudget struct {
	StageTagArrayBytes uint64
	RemapTableBytes    uint64
	RemapCacheBytes    uint64
	TotalSRAMBytes     uint64
	TableFraction      float64 // remap table / total memory capacity
}

// Budget returns the metadata budget of cfg.
func Budget(cfg config.Config) MetadataBudget {
	rc := metadata.NewRemapCache(cfg.RemapCacheSets, cfg.RemapCacheWays, sim.NewStats())
	b := MetadataBudget{
		StageTagArrayBytes: cfg.StageTagArrayBytes(),
		RemapTableBytes:    cfg.RemapTableBytes(),
		RemapCacheBytes:    uint64(rc.StorageBytes()),
	}
	b.TotalSRAMBytes = b.StageTagArrayBytes + b.RemapCacheBytes
	b.TableFraction = float64(b.RemapTableBytes) / float64(cfg.FastBytes+cfg.SlowBytes)
	return b
}
