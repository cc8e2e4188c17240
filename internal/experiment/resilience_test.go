package experiment

import (
	"reflect"
	"testing"

	"baryon/internal/config"
	"baryon/internal/fault"
	"baryon/internal/trace"
)

func resilienceConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1500
	cfg.Seed = 1
	return cfg
}

// TestFaultOffByteIdentity pins that a fault config with no fault source —
// even a non-zero one carrying ECC/penalty tuning — is a strict no-op: the
// full stats dump is byte-identical to a run with the zero config. The
// designs_quick.golden test extends the same guarantee to every design.
func TestFaultOffByteIdentity(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	base := resilienceConfig()
	tuned := base
	tuned.Fault = fault.Config{ECCCorrectBits: 2, RetryPenalty: 100, RemapPenalty: 1000, Seed: 7}
	if tuned.Fault.Enabled() {
		t.Fatal("tuning-only fault config reports enabled")
	}
	for _, design := range []string{DesignBaryon, DesignUnison} {
		a := runOne(base, w, design)
		b := runOne(tuned, w, design)
		if a.Stats.String() != b.Stats.String() {
			t.Fatalf("%s: disabled fault config changed the run:\n%s\nvs\n%s",
				design, a.Stats.String(), b.Stats.String())
		}
	}
}

// TestFaultSeedDeterminism pins that the same fault seed yields identical
// fault.* counters, and a different fault seed yields a different fault
// stream (while the workload stream stays fixed).
func TestFaultSeedDeterminism(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	run := func(faultSeed uint64) string {
		cfg := resilienceConfig()
		cfg.Fault.Slow.BER = 1e-4
		cfg.Fault.ECCCorrectBits = 2
		cfg.Fault.Seed = faultSeed
		res := runOne(cfg, w, DesignBaryon)
		return res.Stats.String()
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1 != a2 {
		t.Fatal("same fault seed produced different stats")
	}
	if a1 == b {
		t.Fatal("different fault seeds produced identical stats")
	}
}

// TestResilienceMonotone checks the experiment's headline property: within
// each design, the clean-serve rate degrades monotonically (non-strictly)
// as the injected raw bit error rate ramps, and the fault-off control is
// exactly 1.
func TestResilienceMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full resilience grid")
	}
	cfg := resilienceConfig()
	rows, _ := Resilience(Runner{}, cfg)
	if len(rows) != len(ResilienceDesigns)*len(ResilienceBERs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(ResilienceDesigns)*len(ResilienceBERs))
	}
	byDesign := map[string][]ResilienceRow{}
	for _, r := range rows {
		byDesign[r.Design] = append(byDesign[r.Design], r)
	}
	for design, series := range byDesign {
		for i, r := range series {
			if r.BER == 0 && r.CleanServe != 1 {
				t.Errorf("%s: fault-off control cleanServe = %f, want 1", design, r.CleanServe)
			}
			if i > 0 {
				prev := series[i-1]
				if r.BER < prev.BER {
					t.Fatalf("%s: BER series not ascending", design)
				}
				if r.CleanServe > prev.CleanServe {
					t.Errorf("%s: cleanServe rose from %f to %f as BER ramped %g -> %g",
						design, prev.CleanServe, r.CleanServe, prev.BER, r.BER)
				}
			}
		}
		// The top of the ramp must show real degradation, not noise.
		last := series[len(series)-1]
		if last.CleanServe >= 0.99 {
			t.Errorf("%s: cleanServe %f at BER %g shows no degradation", design, last.CleanServe, last.BER)
		}
		if last.Corrected == 0 {
			t.Errorf("%s: no corrected errors at BER %g", design, last.BER)
		}
	}
}

// TestResilienceDeterministic pins that the experiment is a pure function
// of its seed.
func TestResilienceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full resilience grid twice")
	}
	cfg := resilienceConfig()
	a, _ := Resilience(Runner{}, cfg)
	b, _ := Resilience(Runner{}, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical resilience runs diverged")
	}
}
