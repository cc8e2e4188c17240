// Package experiment regenerates every table and figure of the paper's
// evaluation (Section IV): the Fig. 3 stage-area access breakdowns, the
// Fig. 4 stage-phase stability distributions, the Fig. 9/10 performance
// comparisons, the Fig. 11 serve-rate and bandwidth-bloat analysis, the
// Fig. 12 compression ablations, the Fig. 13 design-parameter sweeps, the
// Table I configuration/budget summary, and the Section IV-B energy
// comparison. Each harness prints the same rows/series the paper reports.
package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"baryon/internal/baselines"
	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/cpu"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// Design names used throughout the harnesses.
const (
	DesignSimple    = "Simple"
	DesignUnison    = "UnisonCache"
	DesignDICE      = "DICE"
	DesignBaryon    = "Baryon"
	DesignBaryon64B = "Baryon-64B"
	DesignBaryonFA  = "Baryon-FA"
	DesignHybrid2   = "Hybrid2"
	DesignOSPaging  = "OSPaging"
	// Three-tier variants: the same controllers over the DRAM + NVM +
	// CXL-expander topology (see cxlTiers).
	DesignBaryonCXL = "Baryon-CXL"
	DesignUnisonCXL = "UnisonCache-CXL"
	DesignDICECXL   = "DICE-CXL"
)

// cxlTiers is the canonical DRAM+NVM+CXL topology the three-tier built-ins
// share: the lower 8 MB of the canonical far space stays on NVM and the
// remainder spills to a CXL-attached DRAM expander behind a flit link. The
// window is deliberately smaller than the workloads' footprints (tens of MB
// at the scaled config) so both far tiers see real traffic. Each call
// returns a fresh slice so one design's overrides can never alias
// another's.
func cxlTiers() *[]config.TierConfig {
	return config.Ptr([]config.TierConfig{
		{Preset: "ddr4"},
		{Preset: "nvm", Bytes: 8 << 20},
		{Preset: "cxl-dram"},
	})
}

// Controller kinds a DesignSpec can name. A kind selects the controller
// implementation; everything else about a design is configuration.
const (
	KindSimple   = "simple"
	KindUnison   = "unison"
	KindDICE     = "dice"
	KindBaryon   = "baryon"
	KindHybrid2  = "hybrid2"
	KindOSPaging = "ospaging"
)

// PolicySpec holds controller policy knobs that are not Config fields.
type PolicySpec struct {
	// Replacement selects the replacement policy for kinds that take one
	// (simple, unison): "", "lru", "fifo", "random" or "two-level". Empty
	// keeps the kind's default.
	Replacement string `json:"replacement,omitempty"`
}

// DesignSpec is the declarative definition of a design: a name, a
// controller kind, the configuration overrides that distinguish it from the
// base config, and policy knobs. Every design the harnesses and commands
// run — built-in or loaded from a -design-file — is one of these; there is
// no hardcoded design switch anywhere else.
type DesignSpec struct {
	Name      string           `json:"name"`
	Kind      string           `json:"kind"`
	Overrides config.Overrides `json:"overrides,omitempty"`
	Policy    PolicySpec       `json:"policy,omitempty"`
}

// builtinSpecs declares the paper's designs. The baselines get the full
// fast-memory capacity (they reserve no stage area); Baryon variants are
// the baryon kind plus the overrides the paper names them by.
var builtinSpecs = []DesignSpec{
	{Name: DesignSimple, Kind: KindSimple},
	{Name: DesignUnison, Kind: KindUnison},
	{Name: DesignDICE, Kind: KindDICE},
	{Name: DesignBaryon, Kind: KindBaryon},
	{Name: DesignBaryon64B, Kind: KindBaryon, Overrides: config.Overrides{
		BlockBytes:    config.Ptr[uint64](512),
		SubBlockBytes: config.Ptr[uint64](64),
	}},
	{Name: DesignBaryonFA, Kind: KindBaryon, Overrides: config.Overrides{
		FullyAssociative: config.Ptr(true),
		Mode:             config.Ptr("flat"),
	}},
	{Name: DesignHybrid2, Kind: KindHybrid2},
	{Name: DesignOSPaging, Kind: KindOSPaging},
	{Name: DesignBaryonCXL, Kind: KindBaryon, Overrides: config.Overrides{Tiers: cxlTiers()}},
	{Name: DesignUnisonCXL, Kind: KindUnison, Overrides: config.Overrides{Tiers: cxlTiers()}},
	{Name: DesignDICECXL, Kind: KindDICE, Overrides: config.Overrides{Tiers: cxlTiers()}},
}

// Kinds lists the controller kinds a DesignSpec can name.
func Kinds() []string {
	return []string{KindSimple, KindUnison, KindDICE, KindBaryon, KindHybrid2, KindOSPaging}
}

// checkSpec rejects a spec with no name, an unknown kind or an unknown
// replacement-policy name — the checks that need no run configuration, so a
// bad -design-file fails at load time rather than mid-run.
func checkSpec(spec DesignSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("experiment: design spec has no name")
	}
	if !slices.Contains(Kinds(), spec.Kind) {
		return fmt.Errorf("experiment: design %q has unknown kind %q (want %s)",
			spec.Name, spec.Kind, strings.Join(Kinds(), ", "))
	}
	if _, ok := hybrid.ReplacerByName(spec.Policy.Replacement, 0); !ok {
		return fmt.Errorf("experiment: design %q has unknown replacement policy %q",
			spec.Name, spec.Policy.Replacement)
	}
	return nil
}

// Lookup returns the built-in spec for a design name. The built-ins are
// fixed; designs loaded from files travel as values alongside them (see
// ResolveDesign).
func Lookup(name string) (DesignSpec, bool) { return findSpec(builtinSpecs, name) }

func findSpec(specs []DesignSpec, name string) (DesignSpec, bool) {
	i := slices.IndexFunc(specs, func(s DesignSpec) bool { return s.Name == name })
	if i < 0 {
		return DesignSpec{}, false
	}
	return specs[i], true
}

// builtin returns the named built-in spec for the harnesses; a missing name
// is a programming error.
func builtin(name string) DesignSpec {
	s, ok := Lookup(name)
	if !ok {
		panic("experiment: unknown design " + name)
	}
	return s
}

// Designs lists the design names a caller can run: the built-ins in
// declaration order, then loaded in order.
func Designs(loaded []DesignSpec) []string {
	out := make([]string, 0, len(builtinSpecs)+len(loaded))
	for _, s := range builtinSpecs {
		out = append(out, s.Name)
	}
	for _, s := range loaded {
		out = append(out, s.Name)
	}
	return out
}

// ResolveDesign turns a design name into its spec, searching the built-ins
// and then loaded. It is how a command or request that names a design picks
// its spec; everything downstream carries the spec by value.
func ResolveDesign(name string, loaded []DesignSpec) (DesignSpec, error) {
	if s, ok := Lookup(name); ok {
		return s, nil
	}
	if s, ok := findSpec(loaded, name); ok {
		return s, nil
	}
	return DesignSpec{}, UnknownDesignError(name, loaded)
}

// AddDesign appends spec to loaded, rejecting a name already taken by a
// built-in or by an earlier loaded spec.
func AddDesign(loaded []DesignSpec, spec DesignSpec) ([]DesignSpec, error) {
	_, isBuiltin := Lookup(spec.Name)
	_, dup := findSpec(loaded, spec.Name)
	if isBuiltin || dup {
		return loaded, fmt.Errorf("experiment: design %q already defined", spec.Name)
	}
	return append(loaded, spec), nil
}

// UnknownDesignError formats the standard rejection for a design name that
// is neither built in nor in loaded, listing every known name (shared by
// the commands so the error reads the same everywhere).
func UnknownDesignError(name string, loaded []DesignSpec) error {
	known := Designs(loaded)
	slices.Sort(known)
	return fmt.Errorf("unknown design %q; registered designs: %s",
		name, strings.Join(known, ", "))
}

// LoadSpecFile reads a DesignSpec from a JSON file (the -design-file
// format) and checks its name, kind and policy. It has no side effects:
// loading the same file twice yields the same spec twice.
func LoadSpecFile(path string) (DesignSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return DesignSpec{}, err
	}
	var f specFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return DesignSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	spec := f.DesignSpec
	spec.Overrides = f.Overrides.Overrides
	if err := checkSpec(spec); err != nil {
		return DesignSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// specFile is the on-disk form LoadSpecFile decodes. Its overrides also
// accept the retired "compressWorkers" knob, a fit-check worker count that
// never affected results, so older design files keep loading. The value is
// dropped and never reaches the spec hash; every other unknown field is
// still rejected.
type specFile struct {
	DesignSpec
	Overrides struct {
		config.Overrides
		CompressWorkers *int `json:"compressWorkers,omitempty"`
	} `json:"overrides,omitempty"`
}

// SaveSpecFile writes a DesignSpec as indented JSON, the format
// LoadSpecFile reads back.
func SaveSpecFile(path string, spec DesignSpec) error {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateSpec checks a spec against a run configuration: its name, kind
// and policy (as LoadSpecFile does), that the overrides apply cleanly to the
// base config, and that the policy knobs are supported by the kind. RunPair
// calls it before building a controller so a bad spec surfaces as a
// per-pair error instead of a mid-run panic.
func ValidateSpec(spec DesignSpec, cfg config.Config) error {
	if err := checkSpec(spec); err != nil {
		return err
	}
	if err := spec.Overrides.Apply(&cfg); err != nil {
		return fmt.Errorf("experiment: design %q: %w", spec.Name, err)
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("experiment: design %q: %w", spec.Name, err)
	}
	if spec.Policy.Replacement != "" && spec.Kind != KindSimple && spec.Kind != KindUnison {
		return fmt.Errorf("experiment: design %q: kind %q has no replacement-policy knob",
			spec.Name, spec.Kind)
	}
	return nil
}

// FactorySpec returns the controller factory for a spec, the one place a
// controller is assembled: overrides, kit, content probe, the kind's
// controller with the spec's policy, then faults when the config asks. The
// panics below are programmer-error invariants — ValidateSpec rejects every
// user-reachable bad spec first — and the harness's per-pair panic
// isolation contains them regardless.
func FactorySpec(spec DesignSpec) cpu.ControllerFactory {
	return func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
		if err := spec.Overrides.Apply(&cfg); err != nil {
			panic("experiment: design " + spec.Name + ": " + err.Error())
		}
		// An empty Tiers section yields the canonical two-tier list (DDR4
		// over the SlowMemory preset).
		tiers, err := cfg.TierSpecs()
		if err != nil {
			panic("experiment: design " + spec.Name + ": " + err.Error())
		}
		kit := hybrid.NewKit(tiers, store, stats)
		// CXL expander-side compression estimates over the canonical store
		// content; on topologies without a CXL tier the probe is never
		// consulted and the attach is a no-op.
		kit.Engine().SetContentProbe(func(addr, size uint64) []byte {
			return store.Line(addr)
		})
		rep, ok := hybrid.ReplacerByName(spec.Policy.Replacement, cfg.Seed)
		if !ok {
			panic("experiment: design " + spec.Name + ": unknown replacement policy " + spec.Policy.Replacement)
		}
		var ctrl hybrid.Controller
		switch spec.Kind {
		case KindSimple:
			ctrl = baselines.NewSimple(kit, cfg.FastBytes/hybrid.BlockSize, cfg.Assoc, rep)
		case KindUnison:
			ctrl = baselines.NewUnison(kit, cfg.FastBytes/hybrid.BlockSize, cfg.Assoc, rep, cfg.Seed)
		case KindDICE:
			ctrl = baselines.NewDICE(kit, cfg.FastBytes, cfg.DecompressLatency)
		case KindBaryon:
			ctrl = core.New(cfg, kit)
		case KindHybrid2:
			ctrl = baselines.NewHybrid2(cfg, kit)
		case KindOSPaging:
			ctrl = baselines.NewOSPaging(kit, cfg.FastBytes)
		default:
			panic("experiment: unknown kind " + spec.Kind)
		}
		// Faults are armed after the controller registers its counters:
		// registration order is the order a registry lists them in.
		if cfg.Fault.Enabled() {
			kit.Engine().EnableFaults(cfg.Fault, cfg.Seed)
		}
		return ctrl
	}
}
