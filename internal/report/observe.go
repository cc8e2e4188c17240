package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"baryon/internal/experiment"
)

// ObservePairs returns an experiment.Runner Observe func that writes one
// bundle per successful run into dir, named by FileName. Distinct pairs
// write distinct files, so the func is safe under the worker pool without
// locking; bundle build or write failures are reported to errw and do not
// affect the runs themselves. It creates dir up front.
func ObservePairs(dir string, errw io.Writer) (func(experiment.Pair, experiment.PairResult), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return func(p experiment.Pair, pr experiment.PairResult) {
		key, err := Key(p.Spec, p.Cfg, p.Workload.Name)
		if err != nil {
			fmt.Fprintf(errw, "report: %v\n", err)
			return
		}
		b, err := New(key, pr.Result)
		if err != nil {
			fmt.Fprintf(errw, "report: %v\n", err)
			return
		}
		if err := WriteFile(filepath.Join(dir, FileName(key)), b); err != nil {
			fmt.Fprintf(errw, "report: %v\n", err)
		}
	}, nil
}
