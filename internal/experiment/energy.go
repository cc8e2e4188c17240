package experiment

import (
	"baryon/internal/config"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// EnergyRow holds the memory-system energy of one workload per design.
type EnergyRow struct {
	Workload string
	EnergyPJ map[string]float64
}

// EnergyResult summarises the Section IV-B energy comparison.
type EnergyResult struct {
	CacheRows []EnergyRow
	FlatRows  []EnergyRow
	// Savings of Baryon relative to each baseline (mean of per-workload
	// ratios): positive means Baryon uses less energy.
	SavingsVsUnison, SavingsVsDICE, SavingsVsHybrid2 float64
}

// Energy reproduces the Section IV-B energy numbers: the paper reports mean
// memory-energy reductions of 31.9% vs Unison, 13.0% vs DICE (cache mode)
// and 14.5% vs Hybrid2 (flat mode), mostly from lower slow-memory traffic.
func Energy(r Runner, cfg config.Config) (EnergyResult, *Table) {
	res := EnergyResult{}
	t := &Table{
		Title:  "Section IV-B: memory-system energy (relative to Baryon = 1.0)",
		Header: []string{"workload", "Unison", "DICE", "Baryon", "Hybrid2", "Baryon-FA"},
		Notes: []string{
			"paper: Baryon saves 31.9% vs Unison, 13.0% vs DICE, 14.5% vs Hybrid2 on average",
		},
	}
	var ru, rd, rh []float64
	// Five jobs per workload: three cache-mode designs plus two flat-mode
	// designs, all independent and run through the worker pool.
	cacheDesigns := []string{DesignUnison, DesignDICE, DesignBaryon}
	flatDesigns := []string{DesignHybrid2, DesignBaryonFA}
	fcfg := cfg
	fcfg.Mode = config.ModeFlat
	workloads := trace.All()
	perW := len(cacheDesigns) + len(flatDesigns)
	pairs := make([]Pair, 0, len(workloads)*perW)
	for _, w := range workloads {
		for _, d := range cacheDesigns {
			pairs = append(pairs, Pair{Cfg: cfg, Workload: w, Design: d})
		}
		for _, d := range flatDesigns {
			pairs = append(pairs, Pair{Cfg: fcfg, Workload: w, Design: d})
		}
	}
	results := r.mustRun(pairs)
	for wi, w := range workloads {
		cRow := EnergyRow{Workload: w.Name, EnergyPJ: map[string]float64{}}
		for di, d := range cacheDesigns {
			cRow.EnergyPJ[d] = results[wi*perW+di].EnergyPJ
		}
		fRow := EnergyRow{Workload: w.Name, EnergyPJ: map[string]float64{}}
		for di, d := range flatDesigns {
			fRow.EnergyPJ[d] = results[wi*perW+len(cacheDesigns)+di].EnergyPJ
		}
		res.CacheRows = append(res.CacheRows, cRow)
		res.FlatRows = append(res.FlatRows, fRow)
		b := cRow.EnergyPJ[DesignBaryon]
		fa := fRow.EnergyPJ[DesignBaryonFA]
		ru = append(ru, cRow.EnergyPJ[DesignUnison]/b)
		rd = append(rd, cRow.EnergyPJ[DesignDICE]/b)
		rh = append(rh, fRow.EnergyPJ[DesignHybrid2]/fa)
		t.AddRow(w.Name,
			f2(cRow.EnergyPJ[DesignUnison]/b), f2(cRow.EnergyPJ[DesignDICE]/b), "1.00",
			f2(fRow.EnergyPJ[DesignHybrid2]/fa), "1.00")
	}
	res.SavingsVsUnison = 1 - 1/sim.GeoMean(ru)
	res.SavingsVsDICE = 1 - 1/sim.GeoMean(rd)
	res.SavingsVsHybrid2 = 1 - 1/sim.GeoMean(rh)
	t.AddRow("mean saving", pct(res.SavingsVsUnison), pct(res.SavingsVsDICE), "-",
		pct(res.SavingsVsHybrid2), "-")
	return res, t
}
