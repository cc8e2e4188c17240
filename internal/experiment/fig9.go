package experiment

import (
	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// PerfRow is one workload's results across designs.
type PerfRow struct {
	Workload string
	// Speedup maps design name to speedup over the row's baseline.
	Speedup map[string]float64
	// Results keeps the full metrics per design.
	Results map[string]cpu.Result
}

// PerfMatrix is a full performance comparison (Figs. 9 and 10).
type PerfMatrix struct {
	Designs  []string
	Baseline string
	Rows     []PerfRow
	// GeoMean maps design name to the geometric-mean speedup.
	GeoMean map[string]float64
}

// runMatrix executes every (workload, design) pair — fanned out across the
// worker pool — and normalises each row to its baseline design.
func runMatrix(r Runner, cfg config.Config, workloads []trace.Workload, designs []string, baseline string) PerfMatrix {
	m := PerfMatrix{Designs: designs, Baseline: baseline, GeoMean: map[string]float64{}}
	per := map[string][]float64{}
	grid := r.runGrid(cfg, workloads, designs)
	for wi, w := range workloads {
		row := PerfRow{Workload: w.Name, Speedup: map[string]float64{}, Results: map[string]cpu.Result{}}
		var base float64
		for di, d := range designs {
			res := grid[wi][di]
			row.Results[d] = res
			if d == baseline {
				base = float64(res.Cycles)
			}
		}
		for _, d := range designs {
			sp := base / float64(row.Results[d].Cycles)
			row.Speedup[d] = sp
			per[d] = append(per[d], sp)
		}
		m.Rows = append(m.Rows, row)
	}
	for _, d := range designs {
		m.GeoMean[d] = sim.GeoMean(per[d])
	}
	return m
}

// Fig9Designs is the cache-mode comparison set of Fig. 9.
var Fig9Designs = []string{DesignSimple, DesignUnison, DesignDICE, DesignBaryon64B, DesignBaryon}

// Fig9 reproduces Fig. 9: cache-mode performance of Unison Cache, DICE,
// Baryon-64B and Baryon across the whole suite, normalised to the Simple
// DRAM cache.
func Fig9(r Runner, cfg config.Config) (PerfMatrix, *Table) {
	cfg.Mode = config.ModeCache
	m := runMatrix(r, cfg, trace.All(), Fig9Designs, DesignSimple)
	t := &Table{
		Title:  "Fig 9: cache-mode speedup over Simple",
		Header: append([]string{"workload"}, Fig9Designs...),
		Notes: []string{
			"paper: Baryon outperforms Unison by 1.38x and DICE by 1.27x on average;",
			"lbm is the one workload where Unison wins (incompressible, write-heavy)",
		},
	}
	for _, row := range m.Rows {
		cells := []string{row.Workload}
		for _, d := range Fig9Designs {
			cells = append(cells, f2(row.Speedup[d]))
		}
		t.AddRow(cells...)
	}
	cells := []string{"geomean"}
	for _, d := range Fig9Designs {
		cells = append(cells, f3(m.GeoMean[d]))
	}
	t.AddRow(cells...)
	return m, t
}

// Fig10Designs is the flat-mode comparison of Fig. 10.
var Fig10Designs = []string{DesignHybrid2, DesignBaryonFA}

// Fig10 reproduces Fig. 10: fully-associative flat-mode performance of
// Baryon-FA normalised to Hybrid2.
func Fig10(r Runner, cfg config.Config) (PerfMatrix, *Table) {
	cfg.Mode = config.ModeFlat
	m := runMatrix(r, cfg, trace.All(), Fig10Designs, DesignHybrid2)
	t := &Table{
		Title:  "Fig 10: flat-mode speedup of Baryon-FA over Hybrid2",
		Header: []string{"workload", "Baryon-FA/Hybrid2", "srFA", "srH2"},
		Notes: []string{
			"paper: 1.18x on average and up to 2.50x",
		},
	}
	for _, row := range m.Rows {
		t.AddRow(row.Workload, f2(row.Speedup[DesignBaryonFA]),
			pct(row.Results[DesignBaryonFA].FastServeRate), pct(row.Results[DesignHybrid2].FastServeRate))
	}
	t.AddRow("geomean", f3(m.GeoMean[DesignBaryonFA]), "", "")
	return m, t
}
