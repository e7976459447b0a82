package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Fingerprint identifies the host and code a result was measured on.
// Results from different hosts are not comparable; the commit is what
// a comparison is about.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// Key is the host part of the fingerprint: everything but the commit.
func (f Fingerprint) Key() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

// HostFingerprint stamps the current host. The commit is the binary's
// VCS revision when it was built from a git checkout, else a hash of
// the program's Go sources under root.
func HostFingerprint(root string) Fingerprint {
	return Fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func commit(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// errHostMismatch refuses a comparison across hosts: its verdict would
// be about the machines, not the code.
type errHostMismatch struct{ a, b string }

func (e errHostMismatch) Error() string {
	return fmt.Sprintf("refusing to compare results from different hosts:\n  %s\n  %s", e.a, e.b)
}

// Bound is one end-to-end metric's regression bound from BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Comparison is one workload × metric verdict.
type Comparison struct {
	Workload, Metric string
	Base, Head       float64 // medians
	Worse            float64 // share by which head is worse than base (negative: better)
	Regressed        bool
}

// Compare judges head against base per workload and end-to-end metric:
// a metric regresses when its median is worse than base's by more than
// its bound. It refuses when the records come from different hosts.
func Compare(base, head []Record, bounds []Bound) ([]Comparison, error) {
	if len(base) == 0 || len(head) == 0 {
		return nil, errNoResults
	}
	key := base[0].Host.Key()
	for _, r := range append(append([]Record(nil), base...), head...) {
		if k := r.Host.Key(); k != key {
			return nil, errHostMismatch{key, k}
		}
	}
	vals := func(recs []Record, wl, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == wl && r.Trace == 0 {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	wls := map[string]bool{}
	for _, r := range base {
		wls[r.Workload] = true
	}
	var out []Comparison
	for _, wl := range sortedKeys(wls) {
		for _, b := range bounds {
			bx, hx := vals(base, wl, b.Name), vals(head, wl, b.Name)
			if len(bx) == 0 || len(hx) == 0 {
				continue
			}
			c := Comparison{Workload: wl, Metric: b.Name, Base: Median(bx), Head: Median(hx)}
			if c.Base != 0 {
				c.Worse = (c.Head - c.Base) / c.Base
				if b.Better == "higher" {
					c.Worse = -c.Worse
				}
			}
			c.Regressed = c.Worse > b.Bound
			out = append(out, c)
		}
	}
	return out, nil
}

// compareMain is the compare subcommand: exit 0 when no metric
// regressed, 1 when one did, 3 when the hosts differ, 2 on bad usage.
func compareMain(args []string) int {
	fset := flag.NewFlagSet("simbench compare", flag.ContinueOnError)
	spec := fset.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fset.Parse(args); err != nil || fset.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: simbench compare [-spec BENCHMARK.json] BASE_DIR HEAD_DIR")
		return 2
	}
	var def struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	data, err := os.ReadFile(*spec)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench compare:", err)
		return 2
	}
	base, err := loadRecords(fset.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench compare:", err)
		return 2
	}
	head, err := loadRecords(fset.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench compare:", err)
		return 2
	}
	cmp, err := Compare(base, head, def.EndToEnd)
	if _, ok := err.(errHostMismatch); ok {
		fmt.Fprintln(os.Stderr, "simbench compare:", err)
		return 3
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench compare:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-14s %-16s %12s %12s %8s\n", "workload", "metric", "base", "head", "worse")
	for _, c := range cmp {
		mark := ""
		if c.Regressed {
			mark, code = "  REGRESSED", 1
		}
		fmt.Printf("%-14s %-16s %12.4f %12.4f %+7.1f%%%s\n", c.Workload, c.Metric, c.Base, c.Head, 100*c.Worse, mark)
	}
	return code
}

// loadRecords reads every result record in dir (span logs skipped).
func loadRecords(dir string) ([]Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, p := range paths {
		if strings.HasSuffix(p, "-spans.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: %w", dir, errNoResults)
	}
	return recs, nil
}
