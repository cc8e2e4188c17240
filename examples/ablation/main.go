// Ablation: sweep Baryon's selective-commit parameter k (Eq. 1) on one
// workload, reproducing the Fig. 13(d) experiment interactively. k balances
// layout stability against write(back) cost: k=0 is the Hybrid2-style
// write-cost-only policy, k=inf considers stability alone, and commit-all
// ignores the decision entirely.
package main

import (
	"context"
	"fmt"
	"log"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/trace"
)

func main() {
	w, _ := trace.ByName("520.omnetpp_r")
	cfg := config.Scaled()
	cfg.AccessesPerCore = 10000

	type point struct {
		label string
		mut   func(*config.Config)
	}
	points := []point{
		{"k=0 (write cost only)", func(c *config.Config) { c.CommitK = 0 }},
		{"k=1", func(c *config.Config) { c.CommitK = 1 }},
		{"k=2", func(c *config.Config) { c.CommitK = 2 }},
		{"k=4 (default)", func(c *config.Config) { c.CommitK = 4 }},
		{"k=inf (stability only)", func(c *config.Config) { c.CommitK = -1 }},
		{"commit-all", func(c *config.Config) { c.CommitAll = true }},
	}

	fmt.Printf("selective commit sweep on %s\n\n", w.Name)
	var base float64
	for _, p := range points {
		c := cfg
		p.mut(&c)
		res, err := experiment.RunPair(context.Background(), experiment.Pair{Cfg: c, Workload: w, Design: experiment.DesignBaryon})
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = float64(res.Cycles)
		}
		fmt.Printf("  %-24s %9d cycles  (%.3fx vs k=0)  commits=%d evicts=%d\n",
			p.label, res.Cycles, base/float64(res.Cycles),
			res.Stats.Get("baryon.commits"), res.Stats.Get("baryon.evictsToSlow"))
	}
}
