// Command expreport regenerates the paper's tables and figures from the
// simulated substrate and prints them as text tables/bar charts.
//
// Usage:
//
//	expreport [-exp all|tableI|fig6|fig7|fig8|fig9|fig10|fig11|tableII|fig12|fig13|fig14|fig15|ablations|design|degradation]
//	          [-seed N] [-scale quick|default] [-repeats R]
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"

	"simprof/internal/experiments"
	"simprof/internal/history"
	"simprof/internal/model"
	"simprof/internal/obs"
	"simprof/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, tableI, fig6..fig15, tableII, ablations, design, degradation)")
	seed := flag.Uint64("seed", 42, "top-level random seed")
	scale := flag.String("scale", "default", "experiment scale: quick or default")
	repeats := flag.Int("repeats", 0, "override draws averaged for randomized methods")
	workers := flag.Int("workers", 0, "worker goroutines for the compute kernels (0 = GOMAXPROCS, 1 = serial)")
	telemetry := flag.String("telemetry", "", "write a JSON run manifest (span tree, metrics) to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and a telemetry expvar snapshot on this address")
	historyStore := flag.String("history", "", "append this run's manifest to a history store (JSONL) for 'simprof history diff'")
	flag.Parse()

	var manifest *obs.Manifest
	var root *obs.Span
	if *telemetry != "" || *pprofAddr != "" || *historyStore != "" {
		obs.Enable()
		if *pprofAddr != "" {
			expvar.Publish("simprof_obs", expvar.Func(func() any {
				return obs.Default().Snapshot()
			}))
			ln, err := net.Listen("tcp", *pprofAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "expreport: pprof: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("pprof + expvar on http://%s/debug/pprof\n", ln.Addr())
			go func() { _ = http.Serve(ln, nil) }()
		}
		manifest = obs.NewManifest("expreport", os.Args[1:])
		root = obs.StartRun("expreport " + *exp)
	}

	cfg := experiments.Default()
	if *scale == "quick" {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	cfg.Core.Workers = *workers
	s := experiments.NewSuite(cfg)

	runners := map[string]func(*experiments.Suite) error{
		"tableI":      tableI,
		"fig6":        fig6,
		"fig7":        fig7,
		"fig8":        fig8,
		"fig9":        fig9,
		"fig10":       fig10,
		"fig11":       fig11,
		"tableII":     tableII,
		"fig12":       fig12,
		"fig13":       fig13,
		"fig14":       func(s *experiments.Suite) error { return anatomy(s, "spark") },
		"fig15":       func(s *experiments.Suite) error { return anatomy(s, "hadoop") },
		"ablations":   ablations,
		"design":      design,
		"degradation": degradation,
	}
	order := []string{"tableI", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "tableII", "fig12", "fig13", "fig14", "fig15", "ablations", "design",
		"degradation"}

	var toRun []string
	if *exp == "all" {
		toRun = order
		// Profile all workloads in parallel up front.
		if err := s.Preload(); err != nil {
			fmt.Fprintf(os.Stderr, "expreport: preload: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			if _, ok := runners[e]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s)\n", e, strings.Join(order, " "))
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}
	for _, e := range toRun {
		span := obs.StartSpan(context.Background(), "expreport."+e)
		err := runners[e](s)
		span.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "expreport: %s: %v\n", e, err)
			os.Exit(1)
		}
	}
	if manifest != nil {
		root.End()
		manifest.Finalize()
		if *telemetry != "" {
			if err := manifest.WriteFile(*telemetry); err != nil {
				fmt.Fprintf(os.Stderr, "expreport: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("telemetry manifest → %s\n", *telemetry)
		}
		if *historyStore != "" {
			r := history.FromManifest(manifest)
			r.Note = "expreport " + *exp
			r, err := history.Open(*historyStore).Append(r)
			if err != nil {
				fmt.Fprintf(os.Stderr, "expreport: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("recorded run #%d (key %s) → %s\n", r.Seq, r.Key, *historyStore)
		}
	}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func tableI(s *experiments.Suite) error {
	rows, err := s.TableI()
	if err != nil {
		return err
	}
	t := report.NewTable("Table I — evaluated benchmarks",
		"Benchmark", "Abbrev", "Type", "Input", "units_hp", "units_sp")
	for _, r := range rows {
		t.Row(r.Benchmark, r.Abbrev, r.Type, r.Input, r.Units["hadoop"], r.Units["spark"])
	}
	t.Render(os.Stdout)
	return nil
}

func fig6(s *experiments.Suite) error {
	rows, err := s.Fig6()
	if err != nil {
		return err
	}
	t := report.NewTable("Fig. 6 — coefficient of variation of CPIs",
		"Workload", "Population", "Weighted", "Max")
	for _, r := range rows {
		t.Row(r.Workload, r.Population, r.Weighted, r.Max)
	}
	t.Render(os.Stdout)
	return nil
}

func fig7(s *experiments.Suite) error {
	rows, err := s.Fig7()
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig. 7 — CPI sampling error (n=%d; paper avgs: SECOND 6.5%%, SRS 8.9%%, CODE 4.0%%, SimProf 1.6%%)",
			s.Config().SampleSize),
		"Workload", "SECOND", "SRS", "CODE", "SimProf")
	for _, r := range rows {
		t.RowS(r.Workload, pct(r.Second), pct(r.SRS), pct(r.Code), pct(r.SimProf))
	}
	avg := experiments.Averages(rows)
	t.RowS("average", pct(avg.Second), pct(avg.SRS), pct(avg.Code), pct(avg.SimProf))
	t.Render(os.Stdout)
	return nil
}

func fig8(s *experiments.Suite) error {
	rows, err := s.Fig8()
	if err != nil {
		return err
	}
	t := report.NewTable("Fig. 8 — sample size for 99.7% confidence (paper avgs: 85 / 244 / 611)",
		"Workload", "SimProf@5%", "SimProf@2%", "SECOND")
	var a5, a2, as int
	for _, r := range rows {
		t.Row(r.Workload, r.SimProf5, r.SimProf2, r.SecondUnits)
		a5 += r.SimProf5
		a2 += r.SimProf2
		as += r.SecondUnits
	}
	n := len(rows)
	t.Row("average", a5/n, a2/n, as/n)
	t.Render(os.Stdout)
	return nil
}

func fig9(s *experiments.Suite) error {
	rows, err := s.Fig9()
	if err != nil {
		return err
	}
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	for i, r := range rows {
		labels[i], values[i] = r.Workload, float64(r.Phases)
	}
	report.BarChart(os.Stdout, "Fig. 9 — number of phases", labels, values, "%.0f")
	return nil
}

func fig10(s *experiments.Suite) error {
	rows, err := s.Fig10()
	if err != nil {
		return err
	}
	t := report.NewTable("Fig. 10 — phase type distribution (unit-weighted)",
		"Workload", "map", "reduce", "sort", "io", "other")
	for _, r := range rows {
		t.RowS(r.Workload,
			pct(r.Share[model.KindMap]), pct(r.Share[model.KindReduce]),
			pct(r.Share[model.KindSort]), pct(r.Share[model.KindIO]),
			pct(r.Share[model.KindOther]+r.Share[model.KindFramework]))
	}
	t.Render(os.Stdout)
	return nil
}

func fig11(s *experiments.Suite) error {
	rows, err := s.Fig11()
	if err != nil {
		return err
	}
	t := report.NewTable("Fig. 11 — cc_sp optimal allocation (sorted by phase weight)",
		"Phase", "Weight", "CPI CoV", "SampleRatio", "Dominant method")
	for _, r := range rows {
		t.RowS(fmt.Sprint(r.Phase), pct(r.Weight), fmt.Sprintf("%.3f", r.CPICoV),
			pct(r.SampleRatio), r.DominantName)
	}
	t.Render(os.Stdout)
	return nil
}

func tableII(s *experiments.Suite) error {
	t := report.NewTable("Table II — evaluated graph inputs",
		"Input", "Type", "Role", "Vertices", "Edges", "Skew")
	for _, in := range s.TableII() {
		role := "reference"
		if in.Training {
			role = "training"
		}
		st := in.Spec.Stats()
		t.RowS(in.Spec.Name, in.Kind, role,
			fmt.Sprint(st.Vertices), fmt.Sprint(st.Records), fmt.Sprintf("%.2f", st.Skew))
	}
	t.Render(os.Stdout)
	return nil
}

func fig12(s *experiments.Suite) error {
	rows, err := s.Fig12()
	if err != nil {
		return err
	}
	t := report.NewTable("Fig. 12 — simulation points in input-sensitive phases (paper avg: 66.3% kept / 33.7% skipped)",
		"Workload", "Kept", "Skipped")
	var avg float64
	for _, r := range rows {
		t.RowS(r.Workload, pct(r.SensitiveFraction), pct(1-r.SensitiveFraction))
		avg += r.SensitiveFraction / float64(len(rows))
	}
	t.RowS("average", pct(avg), pct(1-avg))
	t.Render(os.Stdout)
	return nil
}

func fig13(s *experiments.Suite) error {
	rows, err := s.Fig13()
	if err != nil {
		return err
	}
	t := report.NewTable("Fig. 13 — input-sensitive vs insensitive phases",
		"Workload", "Sensitive", "Insensitive")
	for _, r := range rows {
		t.Row(r.Workload, r.Sensitive, r.Insensitive)
	}
	t.Render(os.Stdout)
	return nil
}

func anatomy(s *experiments.Suite, fw string) error {
	a, err := s.WordCountAnatomy(fw)
	if err != nil {
		return err
	}
	figNo := map[string]string{"spark": "14", "hadoop": "15"}[fw]
	t := report.NewTable(
		fmt.Sprintf("Fig. %s — WordCount (%s) phase anatomy", figNo, fw),
		"Phase", "Weight", "Mean CPI", "CPI CoV", "Dominant methods")
	for _, p := range a.Phases {
		t.RowS(fmt.Sprint(p.Phase), pct(p.Weight), fmt.Sprintf("%.2f", p.MeanCPI),
			fmt.Sprintf("%.3f", p.CoV), strings.Join(p.Dominant, ", "))
	}
	t.Render(os.Stdout)
	// CPI-vs-unit scatter, downsampled into a coarse text strip chart.
	fmt.Printf("CPI per sampling unit (sorted by phase id), %d units:\n", len(a.CPIs))
	const cols = 100
	step := (len(a.CPIs) + cols - 1) / cols
	if step < 1 {
		step = 1
	}
	var b strings.Builder
	for i := 0; i < len(a.CPIs); i += step {
		maxC := 0.0
		for j := i; j < i+step && j < len(a.CPIs); j++ {
			if a.CPIs[j] > maxC {
				maxC = a.CPIs[j]
			}
		}
		b.WriteByte("._-=+*#%@"[bucket(maxC)])
	}
	fmt.Println(b.String())
	fmt.Println("(glyph = max CPI in bucket: . <1, _ <1.5, - <2, = <2.5, + <3, * <4, # <5, % <7, @ ≥7)")
	fmt.Println()
	return nil
}

func ablations(s *experiments.Suite) error {
	unit, err := s.AblationUnitSize()
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation — sampling-unit size (wc_hp, 10 snapshots/unit; paper uses 100M units)",
		"UnitInstr", "Units", "Phases", "Weighted CoV", "SimProf err")
	for _, r := range unit {
		t.RowS(fmt.Sprintf("%dM", r.UnitInstr/1_000_000), fmt.Sprint(r.Units), fmt.Sprint(r.Phases),
			fmt.Sprintf("%.3f", r.WeightedCoV), pct(r.SimProfErr))
	}
	t.Render(os.Stdout)

	snap, err := s.AblationSnapshotRate()
	if err != nil {
		return err
	}
	t = report.NewTable("Ablation — snapshot cadence (wc_hp, 10M units; paper takes 10 snapshots/unit)",
		"Snapshots/unit", "Phases", "Weighted CoV", "SimProf err")
	for _, r := range snap {
		t.RowS(fmt.Sprint(r.Snapshots), fmt.Sprint(r.Phases),
			fmt.Sprintf("%.3f", r.WeightedCoV), pct(r.SimProfErr))
	}
	t.Render(os.Stdout)

	comb, err := s.AblationCombined()
	if err != nil {
		return err
	}
	t = report.NewTable("Ablation — SimProf + systematic sub-unit sampling (wc_hp; the paper's future work)",
		"Detail fraction", "Detailed instr", "Margin (99.7%)", "Speedup vs full run")
	for _, r := range comb {
		t.RowS(fmt.Sprintf("%.0f%%", 100*r.Fraction), fmt.Sprintf("%dM", r.DetailInstr/1_000_000),
			fmt.Sprintf("±%.3f CPI", r.MarginOfErr), fmt.Sprintf("%.0f×", r.SpeedupVsAll))
	}
	t.Render(os.Stdout)

	gc, err := s.AblationGC()
	if err != nil {
		return err
	}
	t = report.NewTable("Ablation — JVM garbage collection model (wc_sp)",
		"Config", "Phases", "Oracle CPI", "GC snapshot share")
	for _, r := range gc {
		t.RowS(r.Label, fmt.Sprint(r.Phases), fmt.Sprintf("%.3f", r.OracleCPI), pct(r.GCShare))
	}
	t.Render(os.Stdout)

	cold, err := s.AblationColdStart()
	if err != nil {
		return err
	}
	t = report.NewTable("Ablation — cold-start bias vs unit size (why the paper uses 100M-instruction units)",
		"UnitInstr", "Warmup fraction", "Biased CPI", "True CPI", "Relative bias")
	for _, r := range cold {
		t.RowS(fmt.Sprintf("%dM", r.UnitInstr/1_000_000), pct(r.WarmupFrac),
			fmt.Sprintf("%.3f", r.BiasedCPI), fmt.Sprintf("%.3f", r.TrueCPI), pct(r.RelativeBias))
	}
	t.Render(os.Stdout)

	nodes, err := s.AblationNodes()
	if err != nil {
		return err
	}
	t = report.NewTable("Ablation — cluster topology (wc_sp on 4 cores as 1/2/4 nodes)",
		"Nodes", "Oracle CPI", "Weighted CoV", "Phases")
	for _, r := range nodes {
		t.RowS(fmt.Sprint(r.Nodes), fmt.Sprintf("%.3f", r.OracleCPI),
			fmt.Sprintf("%.3f", r.WeightedCoV), fmt.Sprint(r.Phases))
	}
	t.Render(os.Stdout)
	return nil
}

func degradation(s *experiments.Suite) error {
	rows, err := s.AblationDegradation()
	if err != nil {
		return err
	}
	t := report.NewTable("Degradation — sampling accuracy vs profiler fault rate (seeded faults.Uniform, repaired traces)",
		"Workload", "Fault rate", "Degraded units", "Units", "Phases", "SimProf err", "Mean SE", "CI coverage", "SE inflation")
	for _, r := range rows {
		t.RowS(r.Workload, pct(r.FaultRate), pct(r.DegradedFrac),
			fmt.Sprint(r.Units), fmt.Sprint(r.Phases),
			pct(r.SimProfErr), fmt.Sprintf("%.4f", r.MeanSE),
			pct(r.CICoverage), fmt.Sprintf("%.2f", r.SEInflation))
	}
	t.Render(os.Stdout)
	return nil
}

func design(s *experiments.Suite) error {
	rows, err := s.DesignExploration()
	if err != nil {
		return err
	}
	t := report.NewTable("Design-space exploration — 20 wc_sp points picked on the baseline, reused on every candidate",
		"Design", "Oracle CPI", "Point estimate", "Error")
	for _, r := range rows {
		t.RowS(r.Design, fmt.Sprintf("%.3f", r.OracleCPI), fmt.Sprintf("%.3f", r.EstCPI), pct(r.Err))
	}
	t.Render(os.Stdout)
	return nil
}

func bucket(cpi float64) int {
	switch {
	case cpi < 1:
		return 0
	case cpi < 1.5:
		return 1
	case cpi < 2:
		return 2
	case cpi < 2.5:
		return 3
	case cpi < 3:
		return 4
	case cpi < 4:
		return 5
	case cpi < 5:
		return 6
	case cpi < 7:
		return 7
	default:
		return 8
	}
}
