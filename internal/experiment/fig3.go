package experiment

import (
	"context"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/cpu"
	"baryon/internal/trace"
)

// Fig3aRow is one workload's access-type breakdown for staged (S) and
// committed (C) blocks (Fig. 3(a)).
type Fig3aRow struct {
	Workload  string
	Breakdown core.StageBreakdown
}

// baryonBreakdowns runs Baryon in cache mode on every pair and returns each
// controller's stage/commit breakdown in input order. Like every harness it
// is strict: a failed or cancelled pair panics.
func baryonBreakdowns(r Runner, pairs []Pair) []core.StageBreakdown {
	out := make([]core.StageBreakdown, len(pairs))
	r.mustEach(pairs, func(ctx context.Context, i int) error {
		var ctrl *core.Controller
		_, err := runPair(ctx, pairs[i], func(run *cpu.Runner) { ctrl = run.Controller().(*core.Controller) })
		if err == nil {
			out[i] = ctrl.Breakdown()
		}
		return err
	})
	return out
}

// Fig3a reproduces Fig. 3(a): the hit / read-miss / write-overflow split of
// accesses to just-staged (S) versus committed (C) blocks at the default
// stage size, over the SPEC-like workloads.
func Fig3a(r Runner, cfg config.Config) ([]Fig3aRow, *Table) {
	t := &Table{
		Title:  "Fig 3(a): access breakdown, staged (S) vs committed (C) blocks",
		Header: []string{"workload", "S.hit", "S.rdMiss", "S.wrOvfl", "C.hit", "C.rdMiss", "C.wrOvfl"},
		Notes: []string{
			"paper: after commit, read misses fall to <5% and overflows to <1% on average",
		},
	}
	workloads := trace.SPEC()
	pairs := make([]Pair, len(workloads))
	for i, w := range workloads {
		pairs[i] = Pair{Cfg: cfg, Workload: w, Design: DesignBaryon}
	}
	rows := make([]Fig3aRow, len(workloads))
	for i, bd := range baryonBreakdowns(r, pairs) {
		rows[i] = Fig3aRow{Workload: workloads[i].Name, Breakdown: bd}
		t.AddRow(workloads[i].Name, pct(bd.SHits), pct(bd.SReadMisses), pct(bd.SWriteOverflows),
			pct(bd.CHits), pct(bd.CReadMisses), pct(bd.CWriteOverflows))
	}
	return rows, t
}

// Fig3bRow is one (stage size, workload) commit-state breakdown (Fig. 3(b)).
type Fig3bRow struct {
	Workload   string
	StageBytes uint64
	Breakdown  core.StageBreakdown
}

// Fig3bSizes returns the stage-area sweep sizes, scaled from the paper's
// 16/32/64/128 MB by the configuration's scale factor.
func Fig3bSizes(cfg config.Config) []uint64 {
	base := cfg.StageBytes // the "64 MB-equivalent" point
	return []uint64{base / 4, base / 2, base, base * 2}
}

// Fig3b reproduces Fig. 3(b): the committed-block breakdown across stage
// area sizes.
func Fig3b(r Runner, cfg config.Config) ([]Fig3bRow, *Table) {
	t := &Table{
		Title:  "Fig 3(b): committed-block breakdown vs stage area size",
		Header: []string{"workload", "stage", "C.hit", "C.rdMiss", "C.wrOvfl"},
		Notes: []string{
			"stage sizes are the paper's 16/32/64/128 MB scaled to this run's memory scale",
			"paper: larger stage areas reduce post-commit misses/overflows; 64 MB suffices",
		},
	}
	workloads := trace.SPEC()[:4]
	sizes := Fig3bSizes(cfg)
	pairs := make([]Pair, 0, len(workloads)*len(sizes))
	for _, w := range workloads {
		for _, sz := range sizes {
			c := cfg
			c.StageBytes = sz
			pairs = append(pairs, Pair{Cfg: c, Workload: w, Design: DesignBaryon})
		}
	}
	rows := make([]Fig3bRow, len(pairs))
	for i, bd := range baryonBreakdowns(r, pairs) {
		rows[i] = Fig3bRow{Workload: pairs[i].Workload.Name, StageBytes: pairs[i].Cfg.StageBytes, Breakdown: bd}
		t.AddRow(rows[i].Workload, byteSize(rows[i].StageBytes), pct(bd.CHits), pct(bd.CReadMisses), pct(bd.CWriteOverflows))
	}
	return rows, t
}

func byteSize(b uint64) string {
	switch {
	case b >= 1<<20:
		return f2(float64(b)/(1<<20)) + "MB"
	case b >= 1<<10:
		return f2(float64(b)/(1<<10)) + "kB"
	}
	return f2(float64(b)) + "B"
}
