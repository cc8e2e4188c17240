package experiment

import (
	"fmt"

	"baryon/internal/config"
	"baryon/internal/trace"
)

// Fig13Row is one (workload, configuration point) outcome, with performance
// normalised to the default Baryon configuration.
type Fig13Row struct {
	Workload string
	Point    string
	Speedup  float64
}

// sweep runs the representative workloads over configuration points — the
// full (workload, point) grid fans out across the worker pool — and
// normalises each workload to its named baseline point.
func sweep(r Runner, cfg config.Config, points []string, mut func(*config.Config, string), baseline string) ([]Fig13Row, map[string][]string) {
	var rows []Fig13Row
	cells := map[string][]string{}
	workloads := trace.Representative()
	pairs := make([]Pair, 0, len(workloads)*len(points))
	for _, w := range workloads {
		for _, p := range points {
			c := cfg
			mut(&c, p)
			pairs = append(pairs, Pair{Cfg: c, Workload: w, Design: DesignBaryon})
		}
	}
	results := r.mustRun(pairs)
	for wi, w := range workloads {
		base := 0.0
		perPoint := map[string]float64{}
		for pi, p := range points {
			cycles := float64(results[wi*len(points)+pi].Cycles)
			perPoint[p] = cycles
			if p == baseline {
				base = cycles
			}
		}
		row := []string{w.Name}
		for _, p := range points {
			sp := base / perPoint[p]
			rows = append(rows, Fig13Row{Workload: w.Name, Point: p, Speedup: sp})
			row = append(row, f2(sp))
		}
		cells[w.Name] = row
	}
	return rows, cells
}

func sweepTable(r Runner, cfg config.Config, title string, notes []string, points []string, mut func(*config.Config, string), baseline string) ([]Fig13Row, *Table) {
	rows, cells := sweep(r, cfg, points, mut, baseline)
	t := &Table{Title: title, Header: append([]string{"workload"}, points...), Notes: notes}
	for _, w := range trace.Representative() {
		t.AddRow(cells[w.Name]...)
	}
	return rows, t
}

// Fig13a reproduces Fig. 13(a): disabling block-level replacements (so a
// super-block is confined to one stage frame) versus the two-level policy.
func Fig13a(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	points := []string{"two-level", "sub-block-only"}
	return sweepTable(r, cfg,
		"Fig 13(a): two-level stage replacement vs sub-block-only",
		[]string{"paper: sub-block-only loses about 25%"},
		points,
		func(c *config.Config, p string) { c.TwoLevelReplacement = p == "two-level" },
		"two-level")
}

// Fig13b reproduces Fig. 13(b): the super-block size sweep (in blocks).
func Fig13b(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	points := []string{"1", "2", "8", "32"}
	return sweepTable(r, cfg,
		"Fig 13(b): super-block size in blocks (default 8)",
		[]string{"paper: 8 blocks suffices; very large super-blocks add conflict misses"},
		points,
		func(c *config.Config, p string) { fmt.Sscanf(p, "%d", &c.SuperBlockBlocks) },
		"8")
}

// Fig13c reproduces Fig. 13(c): the stage-area size sweep plus the
// no-stage-area configuration.
func Fig13c(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	base := cfg.StageBytes
	points := []string{"1/8", "1/4", "1/2", "1x", "2x", "none"}
	return sweepTable(r, cfg,
		"Fig 13(c): stage-area size (fractions of default) and no-stage ablation",
		[]string{
			"paper: 8 MB is enough for some workloads; 64 MB gives up to 24% more;",
			"removing the stage area loses 34.5% on average (constant re-sorting)",
		},
		points,
		func(c *config.Config, p string) {
			switch p {
			case "1/8":
				c.StageBytes = base / 8
			case "1/4":
				c.StageBytes = base / 4
			case "1/2":
				c.StageBytes = base / 2
			case "1x":
				c.StageBytes = base
			case "2x":
				c.StageBytes = base * 2
			case "none":
				c.UseStageArea = false
			}
		},
		"1x")
}

// Fig13d reproduces Fig. 13(d): the selective-commit parameter k, the two
// degenerate policies (k=0 write-cost-only, k=inf stability-only) and the
// commit-all policy.
func Fig13d(r Runner, cfg config.Config) ([]Fig13Row, *Table) {
	points := []string{"k=0", "k=1", "k=2", "k=4", "k=inf", "commit-all"}
	return sweepTable(r, cfg,
		"Fig 13(d): selective commit policy parameter",
		[]string{
			"paper: k in {1,2,4} performs similarly and beats k=0, k=inf and commit-all",
		},
		points,
		func(c *config.Config, p string) {
			switch p {
			case "k=0":
				c.CommitK = 0
			case "k=1":
				c.CommitK = 1
			case "k=2":
				c.CommitK = 2
			case "k=4":
				c.CommitK = 4
			case "k=inf":
				c.CommitK = -1
			case "commit-all":
				c.CommitAll = true
			}
		},
		"k=4")
}
