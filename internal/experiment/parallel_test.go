package experiment

import (
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/trace"
)

// parallelConfig is smaller than quickConfig: the determinism tests run the
// same grid twice (serial and parallel) and under -race.
func parallelConfig() config.Config {
	cfg := quickConfig()
	cfg.AccessesPerCore = 800
	return cfg
}

// TestParallelismClamp pins the Workers defaults: a negative count means
// one worker per CPU like zero, and more workers than pairs is clamped;
// every setting runs the whole batch.
func TestParallelismClamp(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	cfg := parallelConfig()
	cfg.AccessesPerCore = 200
	pairs := []Pair{{Cfg: cfg, Workload: w, Design: DesignSimple}, {Cfg: cfg, Workload: w, Design: DesignBaryon}}
	for _, n := range []int{-3, 0, 1, 7} {
		for i, pr := range (Runner{Workers: n}).Run(pairs) {
			if pr.Err != nil || pr.Result.Cycles == 0 {
				t.Fatalf("Workers=%d pair %d: err=%v cycles=%d", n, i, pr.Err, pr.Result.Cycles)
			}
		}
	}
}

// TestRunPairsDeterministic asserts the tentpole guarantee: the parallel
// engine produces byte-for-byte the results of serial execution, slotted in
// submission order regardless of completion order.
func TestRunPairsDeterministic(t *testing.T) {
	cfg := parallelConfig()
	workloads := trace.Representative()
	designs := []string{DesignUnison, DesignDICE, DesignBaryon}
	var pairs []Pair
	for _, w := range workloads {
		for _, d := range designs {
			pairs = append(pairs, Pair{Cfg: cfg, Workload: w, Design: d})
		}
	}

	serial := Runner{Workers: 1}.mustRun(pairs)
	parallel := Runner{Workers: 4}.mustRun(pairs)

	if len(serial) != len(parallel) {
		t.Fatalf("result count: serial=%d parallel=%d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Workload != p.Workload || s.Design != p.Design {
			t.Fatalf("pair %d: slot order differs: serial=%s/%s parallel=%s/%s",
				i, s.Workload, s.Design, p.Workload, p.Design)
		}
		if s.Cycles != p.Cycles || s.Instructions != p.Instructions ||
			s.FastServeRate != p.FastServeRate || s.BloatFactor != p.BloatFactor ||
			s.EnergyPJ != p.EnergyPJ {
			t.Errorf("pair %d (%s/%s): serial and parallel results differ:\nserial:   %+v\nparallel: %+v",
				i, s.Workload, s.Design, s, p)
		}
		if s.Stats.String() != p.Stats.String() {
			t.Errorf("pair %d (%s/%s): stats differ", i, s.Workload, s.Design)
		}
	}
}

// TestFig9TableDeterministic renders a full figure twice — serially and with
// four workers — and requires the rendered tables to match exactly.
func TestFig9TableDeterministic(t *testing.T) {
	cfg := parallelConfig()

	render := func(r Runner) string {
		_, tab := Fig9(r, cfg)
		var sb strings.Builder
		tab.Render(&sb)
		return sb.String()
	}
	serial := render(Runner{Workers: 1})
	parallel := render(Runner{Workers: 4})
	if serial != parallel {
		t.Fatalf("Fig9 table differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
