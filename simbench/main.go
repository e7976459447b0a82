// Command simbench is the repository's benchmark. It runs one workload
// against the code's public entry points (the pipeline packages
// in-process, or the simprofd handler over loopback HTTP), checks the
// outputs, and prints its metrics. With -trace 0 it prints the
// end-to-end metrics; with -trace 1 it times calls into each layer from
// outside and prints the per-layer metrics plus the tracing overhead.
//
//	simbench -workload pipeline-100k -seed 1 -seconds 40 -trace 0
//	simbench compare -spec BENCHMARK.json BASE_DIR HEAD_DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every result is also written,
// stamped with a host fingerprint, under <out>/results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"profile_s", "s"},
	{"est_err_pct", "%"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"sustained_rps", "1/s"},
	{"heap_peak_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the per-module metrics, printed by every traced run.
var perLayer = []metricDef{
	{"trace.decode_ms", "ms"},
	{"trace.upload_mb", "MB"},
	{"phase.form_s", "s"},
	{"phase.self_s", "s"},
	{"cluster.choosek_s", "s"},
	{"cluster.kmeans_at_k_ms", "ms"},
	{"cluster.lloyd_iters", "count"},
	{"cluster.silhouette_ms", "ms"},
	{"cluster.k", "count"},
	{"sampling.simprof_ms", "ms"},
	{"sampling.ci_halfwidth_pct", "%"},
	{"sampling.ci_miss_pct", "%"},
	{"history.append_ms", "ms"},
	{"history.records", "count"},
	{"batch.hit_pct", "%"},
	{"batch.coalesced_pct", "%"},
	{"batch.miss_pct", "%"},
	{"server.enqueue_ms", "ms"},
	{"server.handle_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"resilience.rejected_pct", "%"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.sent", "count"},
	{"trace.overhead_pct", "%"},
}

// runCfg is one invocation's settings.
type runCfg struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string // scratch directory for this run, removed afterwards
}

// Report is what a workload run produced.
type Report struct {
	Correct   bool
	Attempted int
	Failed    int
	E2E       map[string]float64
	Layer     map[string]float64
	Notes     []string // sample counts, tail percentiles, check results
	Spans     []Span
}

func newReport() *Report {
	return &Report{Correct: true, E2E: map[string]float64{}, Layer: map[string]float64{}}
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail marks a failed correctness check.
func (r *Report) fail(format string, args ...any) {
	r.Correct = false
	r.notef("CHECK FAILED: "+format, args...)
}

var workloads = map[string]func(runCfg) (*Report, error){
	"pipeline-100k": runPipeline,
	"serve-miss":    runServeMiss,
}

// Metric is one printed value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is a result stamped with where and how it was measured; it is
// what the results directory holds and what compare reads.
type Record struct {
	Host     Fingerprint `json:"host"`
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  int         `json:"seconds"`
	Trace    int         `json:"trace"`
	Result   Result      `json:"result"`
	Notes    []string    `json:"notes"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: pipeline-100k or serve-miss")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs traced and prints per-layer metrics")
	out := fs.String("out", defaultOut(), "directory for results, spans and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "simbench: need -workload (pipeline-100k|serve-miss), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	host := HostFingerprint(".")
	fmt.Printf("host: %s commit=%s\n", host.Key(), host.Commit)

	resDir := filepath.Join(*out, "results")
	runDir := filepath.Join(*out, "run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	rep, err := run(runCfg{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1, dir: runDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	defs, vals := endToEnd, rep.E2E
	if *traceFlag == 1 {
		defs, vals = perLayer, rep.Layer
	}
	res := Result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "simbench: workload %s did not measure %s\n", *name, d.name)
			return 1
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "simbench: workload %s attempted nothing\n", *name)
		return 1
	}

	base := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag)
	rec := Record{Host: host, Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag, Result: res, Notes: rep.Notes}
	if err := writeJSON(filepath.Join(resDir, base+".json"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	if *traceFlag == 1 {
		if err := WriteSpans(filepath.Join(resDir, base+"-spans.json"), rep.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 1
		}
	}
	for _, n := range rep.Notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultOut is the build directory the driver names, else .bench_build.
func defaultOut() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timeSetup runs build setupReps times, tearing down every set-up but
// the last, and returns the last one with the median set-up time.
func timeSetup[T any](build func(rep int) (T, error), teardown func(T)) (T, float64, error) {
	var zero T
	var times []float64
	var cur T
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		v, err := build(rep)
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if rep < setupReps-1 {
			teardown(v)
		}
		cur = v
	}
	return cur, Median(times), nil
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

var errNoResults = errors.New("no result files")
