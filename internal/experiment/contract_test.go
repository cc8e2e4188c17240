package experiment

import (
	"slices"
	"testing"

	"baryon/internal/cpu"
	"baryon/internal/hybrid"
	"baryon/internal/obs"
	"baryon/internal/sim"
)

// TestControllerContract pins the optional interfaces of every kind as
// FactorySpec assembles it. Every kind is built on the kit, so it exposes
// its devices, its engine, a tracer sink and a data peeker; only the Baryon
// core (baryon, hybrid2) keeps the instruction clock and the compression
// and remap-cache reports. Faults configured on the slow tier must be armed
// for every kind.
func TestControllerContract(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			cfg := quickConfig()
			cfg.Fault.Slow.BER = 1e-6
			stats := sim.NewStats()
			spec := DesignSpec{Name: "contract-" + kind, Kind: kind}
			ctrl := FactorySpec(spec)(cfg, hybrid.NewStore(nil), stats)

			if _, ok := ctrl.(cpu.DeviceProvider); !ok {
				t.Error("does not implement cpu.DeviceProvider")
			}
			if _, ok := ctrl.(hybrid.EngineProvider); !ok {
				t.Error("does not implement hybrid.EngineProvider")
			}
			if _, ok := ctrl.(obs.TracerSink); !ok {
				t.Error("does not implement obs.TracerSink")
			}
			if _, ok := ctrl.(hybrid.DataPeeker); !ok {
				t.Error("does not implement hybrid.DataPeeker")
			}

			wantCore := kind == KindBaryon || kind == KindHybrid2
			_, instr := ctrl.(hybrid.InstructionSink)
			_, rangeCF := ctrl.(cpu.MeanRangeCFProvider)
			_, remapRate := ctrl.(cpu.RemapCacheHitRateProvider)
			if instr != wantCore || rangeCF != wantCore || remapRate != wantCore {
				t.Errorf("InstructionSink=%v MeanRangeCFProvider=%v RemapCacheHitRateProvider=%v, want all %v",
					instr, rangeCF, remapRate, wantCore)
			}

			if !slices.Contains(stats.Names(), "NVM.fault.checked") {
				t.Error("slow-tier faults not armed: registry has no NVM.fault.checked")
			}
		})
	}
}
