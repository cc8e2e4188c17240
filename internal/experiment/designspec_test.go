package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/trace"
)

// TestDesignSpecJSONRoundTrip pins the -design-file schema: a spec with
// overrides and policy knobs survives save/load byte-for-byte at the struct
// level.
func TestDesignSpecJSONRoundTrip(t *testing.T) {
	spec := DesignSpec{
		Name: "RoundTrip-Baryon",
		Kind: KindBaryon,
		Overrides: config.Overrides{
			Mode:          config.Ptr("flat"),
			BlockBytes:    config.Ptr[uint64](512),
			SubBlockBytes: config.Ptr[uint64](64),
			CommitK:       config.Ptr(2.5),
			CommitAll:     config.Ptr(false),
		},
		Policy: PolicySpec{Replacement: "lru"},
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := SaveSpecFile(path, spec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, spec)
	}
}

// TestLoadSpecFileTwice pins that loading has no side effects: the same
// design file loads again to the same spec.
func TestLoadSpecFileTwice(t *testing.T) {
	path := filepath.Join("testdata", "design_cxl_baryon.json")
	first, err := LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := LoadSpecFile(path)
	if err != nil {
		t.Fatalf("second load: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second load differs:\n got %+v\nwant %+v", second, first)
	}
}

// TestRegisterRejectsBadSpecs pins the load-time validation: unknown kinds,
// unknown policies and empty names are errors, not mid-run panics, and a
// loaded design may not reuse a built-in's or another loaded design's name.
func TestRegisterRejectsBadSpecs(t *testing.T) {
	for _, spec := range []DesignSpec{
		{Name: "X-NoKind", Kind: "alien"},
		{Name: "X-NoPolicy", Kind: KindSimple, Policy: PolicySpec{Replacement: "clock"}},
		{Kind: KindSimple},
	} {
		if err := checkSpec(spec); err == nil {
			t.Errorf("checkSpec accepted %+v", spec)
		}
		if err := ValidateSpec(spec, parallelConfig()); err == nil {
			t.Errorf("ValidateSpec accepted %+v", spec)
		}
	}
	if _, err := AddDesign(nil, DesignSpec{Name: DesignBaryon, Kind: KindBaryon}); err == nil {
		t.Fatal("AddDesign accepted a duplicate of a built-in design")
	}
	custom := DesignSpec{Name: "X-Custom", Kind: KindSimple}
	loaded, err := AddDesign(nil, custom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddDesign(loaded, custom); err == nil {
		t.Fatal("AddDesign accepted a duplicate of a loaded design")
	}
}

// TestLoadSpecFileRejectsUnknownFields pins DisallowUnknownFields: a typo'd
// key fails loudly instead of being silently ignored. The retired
// compressWorkers override is accepted only inside overrides.
func TestLoadSpecFileRejectsUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"name":"X-Typo","kind":"baryon","overrides":{"blockBites":512}}`,
		`{"name":"X-Typo","kind":"baryon","overides":{}}`,
		`{"name":"X-Typo","kind":"baryon","compressWorkers":4}`,
		`{"name":"X-Typo","kind":"simple","policy":{"compressWorkers":4}}`,
	} {
		path := filepath.Join(t.TempDir(), "typo.json")
		if err := writeFile(path, body); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpecFile(path); err == nil {
			t.Fatalf("LoadSpecFile accepted an unknown field: %s", body)
		}
	}
}

// TestUnknownDesignError pins that the rejection lists the known names —
// the built-ins plus the caller's loaded designs — which is what both
// commands print.
func TestUnknownDesignError(t *testing.T) {
	loaded := []DesignSpec{{Name: "X-Loaded", Kind: KindSimple}}
	_, err := ResolveDesign("Barion", loaded)
	if err == nil {
		t.Fatal("ResolveDesign accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"Barion"`) {
		t.Fatalf("error does not echo the bad name: %s", msg)
	}
	for _, d := range []string{DesignBaryon, DesignSimple, DesignOSPaging, "X-Loaded"} {
		if !strings.Contains(msg, d) {
			t.Fatalf("error does not list %s: %s", d, msg)
		}
	}
}

// TestBuiltinSpecsMatchNames pins that every historical design name is a
// built-in, listed in declaration order and resolvable through Lookup.
func TestBuiltinSpecsMatchNames(t *testing.T) {
	want := []string{DesignSimple, DesignUnison, DesignDICE, DesignBaryon,
		DesignBaryon64B, DesignBaryonFA, DesignHybrid2, DesignOSPaging}
	got := Designs(nil)
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("Designs()[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
		if _, ok := Lookup(name); !ok {
			t.Fatalf("built-in %q not found", name)
		}
	}
}

// TestCustomSpecRunsEndToEnd runs custom designs — a Baryon variant with
// commit-all and a Simple variant with random replacement — through the
// standard harness, the same path the commands use.
func TestCustomSpecRunsEndToEnd(t *testing.T) {
	specs := []DesignSpec{
		{
			Name: "Custom-CommitAll",
			Kind: KindBaryon,
			Overrides: config.Overrides{
				CommitAll: config.Ptr(true),
			},
		},
		{
			Name:   "Custom-SimpleRandom",
			Kind:   KindSimple,
			Policy: PolicySpec{Replacement: "random"},
		},
	}
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	for _, spec := range specs {
		res := runOne(cfg, w, spec)
		if res.Cycles == 0 || res.Instructions == 0 {
			t.Fatalf("%s: empty result %+v", spec.Name, res)
		}
	}
	// The commit-all override must actually reach the controller: with
	// CommitAll set, Baryon never evicts a stage frame to slow memory.
	res := runOne(cfg, w, specs[0])
	if res.Stats.Get("baryon.evictsToSlow") != 0 {
		t.Fatalf("CommitAll design evicted %d frames to slow memory",
			res.Stats.Get("baryon.evictsToSlow"))
	}
}

// TestSpecOverridesDoNotLeak pins that overrides apply to a copy of the run
// config: running Baryon-64B must not mutate the caller's cfg.
func TestSpecOverridesDoNotLeak(t *testing.T) {
	cfg := parallelConfig()
	before := cfg
	w, _ := trace.ByName("505.mcf_r")
	_ = runOne(cfg, w, builtin(DesignBaryon64B))
	if !reflect.DeepEqual(cfg, before) {
		t.Fatalf("RunPair mutated the caller's config:\n got %+v\nwant %+v", cfg, before)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
