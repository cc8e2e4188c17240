package service

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"baryon/internal/experiment"
	"baryon/internal/report"
)

// FlagOpt selects which of the shared CLI flags RegisterFlags installs.
// The -timeout/-bundle-dir/-design-file plumbing used to be copied across
// cmd/baryonsim, cmd/sweep and cmd/experiments; it lives here once now.
type FlagOpt uint

const (
	// FlagTimeout registers -timeout (overall wall-clock budget).
	FlagTimeout FlagOpt = 1 << iota
	// FlagBundleDir registers -bundle-dir (per-run report bundles).
	FlagBundleDir
	// FlagDesignFile registers the singular -design-file (cmd/baryonsim).
	FlagDesignFile
	// FlagDesignFiles registers the plural -design-files (cmd/sweep).
	FlagDesignFiles
	// FlagParallel registers -parallel (experiment worker count).
	FlagParallel
)

// Flags holds the parsed values of the shared CLI flags.
type Flags struct {
	Timeout   time.Duration
	BundleDir string
	Parallel  int

	// Specs are the designs loaded from -design-file/-design-files by
	// Setup, already registered and runnable by name.
	Specs []experiment.DesignSpec

	which       FlagOpt
	designFiles string
}

// RegisterFlags installs the selected shared flags on fs. timeoutUsage is
// the full -timeout help text (each command describes its own expiry
// behavior); ignored unless FlagTimeout is selected.
func RegisterFlags(fs *flag.FlagSet, which FlagOpt, timeoutUsage string) *Flags {
	f := &Flags{which: which}
	if which&FlagTimeout != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, timeoutUsage)
	}
	if which&FlagBundleDir != 0 {
		fs.StringVar(&f.BundleDir, "bundle-dir", "",
			"write one deterministic report bundle per successful run into this directory (diff with cmd/runreport)")
	}
	if which&FlagDesignFile != 0 {
		fs.StringVar(&f.designFiles, "design-file", "",
			"JSON DesignSpec file defining a custom design (runs it unless -design overrides)")
	}
	if which&FlagDesignFiles != 0 {
		fs.StringVar(&f.designFiles, "design-files", "",
			"comma-separated JSON DesignSpec files; loaded designs are appended to the sweep")
	}
	if which&FlagParallel != 0 {
		fs.IntVar(&f.Parallel, "parallel", 0, "worker count for concurrent runs (0 = GOMAXPROCS)")
	}
	return f
}

// Setup applies the parsed flags to a command lifecycle and returns the
// command's experiment.Runner: ctx wrapped in the -timeout deadline, the
// -parallel worker count and, with -bundle-dir, an Observe func that writes
// one report bundle per successful run. It also loads and registers every
// -design-file(s) spec (exposed as Specs). The returned cleanup cancels the
// deadline; it is safe to skip on process exit.
func (f *Flags) Setup(ctx context.Context, errw io.Writer) (experiment.Runner, func(), error) {
	r := experiment.Runner{Ctx: ctx, Workers: f.Parallel}
	if f.designFiles != "" {
		for _, path := range strings.Split(f.designFiles, ",") {
			spec, err := experiment.LoadSpecFile(strings.TrimSpace(path))
			if err != nil {
				return r, func() {}, fmt.Errorf("loading design file: %w", err)
			}
			f.Specs = append(f.Specs, spec)
		}
	}
	if f.BundleDir != "" {
		observe, err := report.ObservePairs(f.BundleDir, errw)
		if err != nil {
			return r, func() {}, fmt.Errorf("bundle dir: %w", err)
		}
		r.Observe = observe
	}
	cancel := context.CancelFunc(func() {})
	if f.Timeout > 0 {
		r.Ctx, cancel = context.WithTimeout(ctx, f.Timeout)
	}
	return r, cancel, nil
}
