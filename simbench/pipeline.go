package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"simprof/internal/cluster"
	"simprof/internal/matrix"
	"simprof/internal/phase"
	"simprof/internal/sampling"
	"simprof/internal/trace"
)

const (
	pipelineUnits = 100_000
	sampleN       = 20    // the service's default sample size
	ciLevel       = 0.997 // the confidence level the service reports
	maxPhases     = 20    // the service's default k sweep bound
	// drawSeeds is the fixed set of sampling seeds (1..drawSeeds) drawn
	// on formed phases to judge estimate error and CI coverage.
	drawSeeds = 200
)

// profileOut is one in-process pipeline run: decode → FormCtx with the
// service's default options → SimProfCtx → CI.
type profileOut struct {
	Units int
	Ph    *phase.Phases
	Sp    sampling.Stratified
	CI    [2]float64
}

// profile runs the pipeline the service runs on one upload, with spans
// around each public call when tr is non-nil.
func profile(ctx context.Context, data []byte, n int, seed uint64, tr *Tracer, parent int, req string) (*profileOut, error) {
	s := tr.Start("trace.DecodeBytesCtx", parent, req)
	t, err := trace.DecodeBytesCtx(ctx, data)
	tr.End(s)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	s = tr.Start("phase.FormCtx", parent, req)
	ph, err := phase.FormCtx(ctx, t, phase.Options{Seed: seed})
	tr.End(s)
	if err != nil {
		return nil, fmt.Errorf("form: %w", err)
	}
	s = tr.Start("sampling.SimProfCtx", parent, req)
	sp, err := sampling.SimProfCtx(ctx, ph, n, seed)
	if err != nil {
		tr.End(s)
		return nil, fmt.Errorf("simprof: %w", err)
	}
	ci := sp.CI(ciLevel)
	tr.End(s)
	return &profileOut{Units: len(t.Units), Ph: ph, Sp: sp, CI: [2]float64{ci.Lo(), ci.Hi()}}, nil
}

// checkProfile verifies the invariants every profile must satisfy.
func checkProfile(rep *Report, what string, out *profileOut, n, units int) {
	sum := 0
	for _, a := range out.Sp.Alloc {
		sum += a
	}
	if sum != n {
		rep.fail("%s: allocation sums to %d, want n=%d", what, sum, n)
	}
	if out.Ph.K < 1 || out.Ph.K > maxPhases {
		rep.fail("%s: k=%d outside [1, %d]", what, out.Ph.K, maxPhases)
	}
	if out.Units != units {
		rep.fail("%s: %d units decoded, input has %d", what, out.Units, units)
	}
	if !(out.CI[0] <= out.Sp.EstCPI && out.Sp.EstCPI <= out.CI[1]) {
		rep.fail("%s: estimate %.6f outside its own CI [%.6f, %.6f]", what, out.Sp.EstCPI, out.CI[0], out.CI[1])
	}
}

// drawStats is the estimate quality over the fixed draw seeds on formed
// phases: RMS relative error, CI miss share and median relative CI
// half-width, all in percent.
type drawStats struct {
	RMSErrPct, MissPct, HalfWidthPct float64
	Draws                            int
}

// formed is a profiled trace with its known oracle CPI.
type formed struct {
	Ph     *phase.Phases
	Oracle float64
	Seed   uint64 // the seed Form ran with
}

// drawAcc pools estimate quality over draws on several formed traces.
type drawAcc struct {
	sq   float64 // Σ squared relative error
	miss int
	half []float64 // relative CI half-width per draw, %
}

// add draws seeds 1..seeds on one formed trace.
func (a *drawAcc) add(ctx context.Context, f formed, n, seeds int, tr *Tracer, parent int) error {
	for j := 1; j <= seeds; j++ {
		s := tr.Start("sampling.SimProfCtx", parent, "")
		sp, err := sampling.SimProfCtx(ctx, f.Ph, n, uint64(j))
		tr.End(s)
		if err != nil {
			return fmt.Errorf("draw %d: %w", j, err)
		}
		ci := sp.CI(ciLevel)
		e := (sp.EstCPI - f.Oracle) / f.Oracle
		a.sq += e * e
		if f.Oracle < ci.Lo() || f.Oracle > ci.Hi() {
			a.miss++
		}
		a.half = append(a.half, 100*(ci.Hi()-ci.Lo())/2/sp.EstCPI)
	}
	return nil
}

func (a *drawAcc) stats() drawStats {
	draws := len(a.half)
	return drawStats{
		RMSErrPct:    100 * math.Sqrt(a.sq/float64(draws)),
		MissPct:      100 * float64(a.miss) / float64(draws),
		HalfWidthPct: Median(a.half),
		Draws:        draws,
	}
}

// drawQuality pools drawSeeds draws on every formed trace.
func drawQuality(ctx context.Context, fs []formed, n int, tr *Tracer, parent int) (drawStats, error) {
	if len(fs) == 0 {
		return drawStats{}, fmt.Errorf("no formed traces to draw from")
	}
	var acc drawAcc
	for _, f := range fs {
		if err := acc.add(ctx, f, n, drawSeeds, tr, parent); err != nil {
			return drawStats{}, err
		}
	}
	return acc.stats(), nil
}

// clusterPass re-runs the k sweep's pieces standalone on the formed
// phase vectors with Form's options, so their share of Form shows:
// the full ChooseKDense sweep, one KMeansDense at the chosen k, and the
// simplified silhouette of the formed partition. The standalone sweep
// must choose the same k Form did.
func clusterPass(rep *Report, ph *phase.Phases, seed uint64, tr *Tracer, parent int) (iters int, err error) {
	pts := matrix.FromRows(ph.Vectors)
	s := tr.Start("cluster.ChooseKDense", parent, "")
	sel, err := cluster.ChooseKDense(pts, cluster.ChooseKOptions{MaxK: maxPhases, KMeans: cluster.Options{Seed: seed}})
	tr.End(s)
	if err != nil {
		return 0, fmt.Errorf("choosek: %w", err)
	}
	if sel.K != ph.K {
		rep.fail("standalone ChooseKDense chose k=%d, Form chose k=%d", sel.K, ph.K)
	}
	s = tr.Start("cluster.KMeansDense", parent, "")
	res, err := cluster.KMeansDense(pts, ph.K, cluster.Options{Seed: seed})
	tr.End(s)
	if err != nil {
		return 0, fmt.Errorf("kmeans: %w", err)
	}
	s = tr.Start("cluster.SimplifiedSilhouette", parent, "")
	cluster.SimplifiedSilhouette(ph.Vectors, ph.Centers, ph.Assign)
	tr.End(s)
	return res.Iters, nil
}

// pipelineDraws is how many draw seeds each pipeline-100k profile gets;
// a draw on 100k units costs about 10ms.
const pipelineDraws = 60

// runPipeline is pipeline-100k: one closed-loop caller profiling a
// 100k-unit trace in-process with the service's default options. Like
// successive users of one trace, profile i runs with seed i+1; the run
// seed picks the trace.
func runPipeline(cfg runCfg) (*Report, error) {
	ctx := context.Background()
	rep := newReport()
	up, setupS, err := timeSetup(func(int) (Upload, error) {
		return makeUpload(pipelineUnits, cfg.seed, 0)
	}, func(Upload) {})
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setupS
	runtime.GC()

	var tr *Tracer
	if cfg.traced {
		tr = NewTracer()
	}
	// A median needs three profiles; so does a traced run's bracketed
	// overhead measure below.
	const minProfiles = 3
	var plain, traced []float64 // seconds per profile
	var busy time.Duration      // profiling time, draws excluded
	var allocMB float64
	var ks, iters []float64
	var acc drawAcc
	mem := watchMemory()
	for i := 0; ; i++ {
		seed, t := uint64(i+1), tr
		if cfg.traced && i < 3 {
			// A traced run profiles seed 1 untraced, traced and untraced
			// again, and measures the tracing overhead on that set: Form's
			// seed changes its k sweep, and bracketing the traced profile
			// evens out warm-up and drift in the host's speed.
			seed = 1
			if i != 1 {
				t = nil
			}
		} else if cfg.traced {
			seed = uint64(i - 1)
		}
		iterStart := time.Now()
		alloc0 := allocatedMB()
		root := t.Start("profile", 0, fmt.Sprint(i))
		out, err := profile(ctx, up.Data, sampleN, seed, t, root, fmt.Sprint(i))
		t.End(root)
		d := time.Since(iterStart).Seconds()
		allocMB += allocatedMB() - alloc0
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return nil, fmt.Errorf("profile %d: %w", i, err)
		}
		checkProfile(rep, fmt.Sprintf("profile %d", i), out, sampleN, up.Units)
		ks = append(ks, float64(out.Ph.K))
		if t == nil {
			plain = append(plain, d)
		} else {
			traced = append(traced, d)
			pass := t.Start("standalone", 0, fmt.Sprint(i))
			it, err := clusterPass(rep, out.Ph, seed, t, pass)
			t.End(pass)
			if err != nil {
				return nil, err
			}
			iters = append(iters, float64(it))
		}
		iter := time.Since(iterStart)
		busy += iter

		if !cfg.traced || i == 0 || i > 2 { // seed 1's phases are drawn once
			dr := tr.Start("draws", 0, fmt.Sprint(i))
			err = acc.add(ctx, formed{out.Ph, up.Oracle, seed}, sampleN, pipelineDraws, tr, dr)
			tr.End(dr)
			if err != nil {
				return nil, err
			}
		}
		// Stop where the next profile would end nearer past the window
		// than this one ended short of it, once the minimum is done.
		if busy+iter/2 > cfg.seconds && i+1 >= minProfiles {
			break
		}
	}
	peakMB, _ := mem.Stop()
	q := acc.stats()

	all := append(append([]float64(nil), plain...), traced...)
	tail := TailOf(all)
	rep.E2E["profile_s"] = Median(all)
	rep.E2E["est_err_pct"] = q.RMSErrPct
	rep.E2E["lat_p50_ms"] = 1000 * Median(all)
	rep.E2E["lat_tail_ms"] = 1000 * tail.Value
	rep.E2E["sustained_rps"] = float64(len(all)) / sum(all)
	rep.E2E["heap_peak_mb"] = peakMB - inputMB([]Upload{up})
	rep.E2E["alloc_mb_per_op"] = allocMB / float64(len(all))
	rep.notef("pipeline-100k: %d profiles of %d units (%.1f MB) in %.1fs busy, closed loop, 1 caller; k per profile %v",
		len(all), up.Units, float64(len(up.Data))/1e6, busy.Seconds(), ks)
	rep.notef("lat_tail_ms is p%.1f of %d samples (the maximum when there are at most %d)", tail.Pct, tail.N, tailMinBeyond)
	rep.notef("estimate over %d draws: rms err %.3f%%, CI(%.1f%%) misses %.2f%%, median half-width %.3f%%",
		q.Draws, q.RMSErrPct, 100*ciLevel, q.MissPct, q.HalfWidthPct)

	if cfg.traced {
		spans := tr.Spans()
		d := Durations(spans)
		formS := Median(d["phase.FormCtx"]) / 1000
		chooseS := Median(d["cluster.ChooseKDense"]) / 1000
		setPipelineLayers(rep, d, formS, chooseS, float64(len(up.Data))/1e6, Median(ks), Median(iters), q)
		setServiceLayersZero(rep)
		rep.Layer["trace.overhead_pct"] = 100 * (2*traced[0]/(plain[0]+plain[1]) - 1)
		rep.Spans = spans
		noteSelfTimes(rep, spans)
	}
	return rep, nil
}

// setPipelineLayers fills the pipeline's per-layer metrics from span
// durations (ms by span name).
func setPipelineLayers(rep *Report, d map[string][]float64, formS, chooseS, uploadMB, k, iters float64, q drawStats) {
	rep.Layer["trace.decode_ms"] = Median(d["trace.DecodeBytesCtx"])
	rep.Layer["trace.upload_mb"] = uploadMB
	rep.Layer["phase.form_s"] = formS
	rep.Layer["phase.self_s"] = formS - chooseS
	rep.Layer["cluster.choosek_s"] = chooseS
	rep.Layer["cluster.kmeans_at_k_ms"] = Median(d["cluster.KMeansDense"])
	rep.Layer["cluster.lloyd_iters"] = iters
	rep.Layer["cluster.silhouette_ms"] = Median(d["cluster.SimplifiedSilhouette"])
	rep.Layer["cluster.k"] = k
	rep.Layer["sampling.simprof_ms"] = Median(d["sampling.SimProfCtx"])
	rep.Layer["sampling.ci_halfwidth_pct"] = q.HalfWidthPct
	rep.Layer["sampling.ci_miss_pct"] = q.MissPct
}

// setServiceLayersZero records the service layers a workload does not
// exercise as zero.
func setServiceLayersZero(rep *Report) {
	for _, name := range []string{
		"history.append_ms", "history.records",
		"batch.hit_pct", "batch.coalesced_pct", "batch.miss_pct",
		"server.enqueue_ms", "server.handle_ms", "server.transport_ms",
		"resilience.rejected_pct", "loadgen.late_p99_ms", "loadgen.backlog_max", "loadgen.sent",
	} {
		rep.Layer[name] = 0
	}
}

// noteSelfTimes adds the traced run's self-time breakdown to the notes.
func noteSelfTimes(rep *Report, spans []Span) {
	self := SelfTimes(spans)
	d := Durations(spans)
	for _, name := range sortedKeys(self) {
		rep.notef("span %-28s n=%-5d total %10.1f ms  self %10.1f ms", name, len(d[name]), sum(d[name]), self[name])
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
