package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profLayers are the packages whose CPU self-time share the traced run
// reports, named as in the repository's module layout.
var profLayers = []string{
	"cpu", "cache", "hybrid", "core", "metadata", "compress", "pipeline",
	"mem", "datagen", "trace", "baselines", "runtime",
}

// cpuClasses is a reading of the runtime's CPU-time accounting.
type cpuClasses struct{ gc, total, idle float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), total: s[1].Value.Float64(), idle: s[2].Value.Float64()}
}

// cpuProfile is a runtime/pprof CPU profile of the untraced parts of a
// traced run, taken in segments (one file each) so the timing wrappers'
// own cost stays out of it, plus the runtime's CPU accounting over the
// same segments. A nil *cpuProfile (an untraced run) does nothing.
type cpuProfile struct {
	dir   string
	files []string
	f     *os.File
	start cpuClasses // at the open segment's start
	sum   cpuClasses // over closed segments
}

func newCPUProfile(dir string) *cpuProfile { return &cpuProfile{dir: dir} }

// resume opens a profile segment.
func (p *cpuProfile) resume() error {
	if p == nil {
		return nil
	}
	path := filepath.Join(p.dir, fmt.Sprintf("cpu-%d.pprof", len(p.files)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f, p.files = f, append(p.files, path)
	p.start = readCPUClasses()
	return nil
}

// pause closes the open segment.
func (p *cpuProfile) pause() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	c := readCPUClasses()
	p.sum.gc += c.gc - p.start.gc
	p.sum.total += c.total - p.start.total
	p.sum.idle += c.idle - p.start.idle
	return p.f.Close()
}

// layers folds every segment into per-package self-time shares with the
// toolchain's pprof, which merges the files it is given.
func (p *cpuProfile) layers() (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000"}, p.files...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTop(top)
}

// gcFrac is the share of the profiled segments' busy CPU time spent in
// the garbage collector.
func (p *cpuProfile) gcFrac() float64 {
	busy := p.sum.total - p.sum.idle
	if busy <= 0 {
		return 0
	}
	return p.sum.gc / busy
}

// topRow matches one row of `pprof -top`: flat, flat%, sum%, cum, cum%,
// then the function name, which may contain spaces.
var topRow = regexp.MustCompile(`^\s*\S+\s+([0-9.]+)%\s+\S+\s+\S+\s+\S+\s+(.+)$`)

// foldTop sums the flat% column of `pprof -top` output by package.
func foldTop(top []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(top))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		m := topRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		pct, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		out[pkgOf(m[2])] += pct / 100
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof -top printed no rows:\n%s", top)
	}
	return out, sc.Err()
}

// typeArgPkg finds the first repository package named inside a generic
// instantiation's type arguments.
var typeArgPkg = regexp.MustCompile(`baryon/internal/(?:[a-z0-9]+/)*([a-z0-9]+)\.`)

// pkgOf returns the last element of a profiled function's package path.
// Methods of the generic hybrid.Dir count under their type argument's
// package, so a cache's tag lookups land in cache, not hybrid.
func pkgOf(fn string) string {
	name := fn
	if i := strings.IndexByte(fn, '['); i >= 0 {
		if j := strings.LastIndexByte(fn, ']'); j > i {
			args := fn[i+1 : j]
			name = fn[:i] + fn[j+1:]
			if strings.HasPrefix(fn, "baryon/internal/hybrid.") && strings.Contains(fn[:i], "Dir") {
				if m := typeArgPkg.FindStringSubmatch(args); m != nil {
					return m[1]
				}
			}
		}
	}
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return name
}
