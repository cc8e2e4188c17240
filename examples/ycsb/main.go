// YCSB: the memcached+YCSB scenario of the paper's evaluation. A Zipfian
// key-value store with 1 kB records runs against Baryon and the compressed
// DRAM-cache baseline, under the write-heavy A mix and the read-mostly B
// mix, with and without the zero-block (Z-bit) optimisation that the paper
// credits with 8% on YCSB-A (key-value values are full of zero padding).
package main

import (
	"context"
	"fmt"
	"log"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/trace"
)

func main() {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 10000

	for _, name := range []string{"YCSB-A", "YCSB-B"} {
		w, _ := trace.ByName(name)
		fmt.Printf("=== %s (%.0f%% writes, zipfian keys) ===\n", name, 100*w.WriteRatio)

		run := func(c config.Config, design string) cpu.Result {
			spec, _ := experiment.Lookup(design)
			res, err := experiment.RunPair(context.Background(), experiment.Pair{Cfg: c, Workload: w, Spec: spec})
			if err != nil {
				log.Fatal(err)
			}
			return res
		}
		dice := run(cfg, experiment.DesignDICE)
		baryon := run(cfg, experiment.DesignBaryon)

		noZ := cfg
		noZ.ZeroBlockOpt = false
		baryonNoZ := run(noZ, experiment.DesignBaryon)

		fmt.Printf("  DICE:              %9d cycles, serve %5.1f%%\n",
			dice.Cycles, 100*dice.FastServeRate)
		fmt.Printf("  Baryon:            %9d cycles, serve %5.1f%%, zero-served lines %d\n",
			baryon.Cycles, 100*baryon.FastServeRate, baryon.Stats.Get("baryon.servedZero"))
		fmt.Printf("  Baryon w/o Z-bit:  %9d cycles (Z-bit worth %.1f%%)\n",
			baryonNoZ.Cycles, 100*(float64(baryonNoZ.Cycles)/float64(baryon.Cycles)-1))
		fmt.Printf("  Baryon vs DICE:    %.2fx\n\n", float64(dice.Cycles)/float64(baryon.Cycles))
	}
}
