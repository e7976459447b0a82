package cluster

import (
	"context"
	"fmt"
	"sort"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// Sweep telemetry: how long each k of the silhouette sweep costs and
// how many sweeps ran. Per-k timings use a histogram (not spans)
// because the sweep tasks run concurrently on the worker pool.
var (
	obsSweeps = obs.NewCounter("cluster.choosek_sweeps",
		"ChooseK sweeps run")
	obsSweepK = obs.NewCounter("cluster.choosek_ks",
		"k values swept (clustering + silhouette each)")
	obsSweepSeconds = obs.NewHistogram("cluster.choosek_k_seconds",
		"wall seconds per swept k (k-means restarts + silhouette)",
		0.001, 0.01, 0.1, 1, 10)
	obsSweepSampled = obs.NewCounter("cluster.sweep_sampled",
		"ChooseK sweeps that ran on a subsample and refined on every point")
	obsRefineIters = obs.NewHistogram("cluster.refine_iters",
		"Lloyd iterations of the all-points refine after a subsampled sweep",
		1, 2, 4, 8, 16, 32, 64)
)

// sweepSampleRows caps the rows the k sweep runs on. Larger inputs
// sweep a uniform subsample of this many rows and refine the chosen
// clustering once on every row (see ChooseKDense and DESIGN.md §18).
// It only ever changes in tests, which use it to force the exact path.
var sweepSampleRows = 4096

// sweepSampleStream labels the subsample draw's seed, derived from
// KMeans.Seed apart from the per-k and per-restart seeds.
const sweepSampleStream = 0x5eed5a3b1e

// KSelection records the outcome of the k sweep used by phase formation.
// Above the sweep's subsample cap the scores are silhouettes of the
// subsample's clusterings; Best always covers every input row.
type KSelection struct {
	K           int       // chosen number of clusters
	Best        Result    // clustering at the chosen k
	Scores      []float64 // silhouette score per k (index 0 ↔ k=1)
	BestScore   float64   // highest silhouette over the sweep
	ChosenScore float64   // silhouette at the chosen k
}

// ChooseKOptions configures ChooseK.
type ChooseKOptions struct {
	MaxK      int     // upper bound of the sweep (paper: 20)
	Threshold float64 // fraction of the best score that still qualifies (default 0.93; paper: 0.90)
	MinScore  float64 // below this best score the data has no cluster structure → k=1 (default 0.20)
	KMeans    Options
	// Workers bounds the concurrency of the whole sweep: the per-k
	// tasks, their k-means restarts and the chunked point passes all
	// share this one budget, so a parallel sweep never oversubscribes.
	// 0 selects GOMAXPROCS; 1 reproduces the serial baseline. The
	// selection is bit-for-bit identical for every setting.
	Workers int
	// Ctx, when non-nil, lets a caller abandon the sweep: once it ends,
	// in-flight chunks finish, no new work starts, and ChooseK returns
	// the context error. A nil Ctx never cancels.
	Ctx context.Context
}

func (o ChooseKOptions) withDefaults() ChooseKOptions {
	if o.MaxK <= 0 {
		o.MaxK = 20
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.93
	}
	if o.MinScore <= 0 {
		o.MinScore = 0.20
	}
	if o.Workers == 0 {
		o.Workers = o.KMeans.Workers
	}
	return o
}

// ChooseK scores every k in [1, MaxK] with the simplified silhouette and
// returns the smallest k whose score is at least Threshold × the best
// score (the paper's rule). k=1 is the degenerate "single phase" answer:
// it is chosen when the best silhouette over k ≥ 2 is below MinScore,
// i.e. when the units do not separate (e.g. grep on Spark, which runs a
// single filter stage).
func ChooseK(points [][]float64, opts ChooseKOptions) (KSelection, error) {
	if len(points) == 0 {
		return KSelection{}, fmt.Errorf("cluster: ChooseK with no points")
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return KSelection{}, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), d)
		}
	}
	return ChooseKDense(matrix.FromRows(points), opts)
}

// ChooseKDense is ChooseK on a flat matrix — the entry phase formation
// uses once its projected vectors already live in a Dense. Point norms
// are computed once and shared by every k of the sweep, every restart's
// seeding and assignment passes, and every silhouette scoring pass.
//
// Every k of the sweep is an independent task (its k-means seed is
// pre-derived from the base seed, its result lands in its own slot), so
// the sweep fans out across the worker pool while remaining
// deterministic.
//
// Above sweepSampleRows rows the sweep runs in two phases: the exact
// sweep on a uniform subsample of sweepSampleRows rows (drawn without
// replacement from a seed derived from KMeans.Seed, in row order) picks
// k and its centers, then one pruned Lloyd run on every row refines
// those centers. Scores and ChosenScore are then the subsample's
// silhouettes. The result is still identical for every Workers setting,
// but no longer bit-identical to the exact sweep on all rows: that
// contract holds only at or below the cap.
func ChooseKDense(pts *matrix.Dense, opts ChooseKOptions) (KSelection, error) {
	o := opts.withDefaults()
	n := pts.Rows()
	if n == 0 {
		return KSelection{}, fmt.Errorf("cluster: ChooseK with no points")
	}
	eng := parallel.New(o.Workers).WithContext(o.Ctx)
	if n <= sweepSampleRows {
		return chooseKExact(eng, pts, o)
	}
	obsSweepSampled.Inc()
	sub := pts.GatherRows(sweepSample(n, o.KMeans.Seed))
	sel, err := chooseKExact(eng, sub, o)
	if err != nil {
		return KSelection{}, err
	}
	var st distStats
	sel.Best = refineDense(eng, pts, sel.Best.Centers, o.KMeans, &st)
	if err := eng.Err(); err != nil {
		// Canceled mid-refine: the result may cover a partial grid.
		return KSelection{}, err
	}
	st.record()
	return sel, nil
}

// sweepSample draws sweepSampleRows of n row indices uniformly without
// replacement and returns them sorted, so the subsample keeps the
// input's row order.
func sweepSample(n int, seed uint64) []int {
	idx := stats.SampleWithoutReplacement(stats.NewRNG(stats.SplitSeed(seed, sweepSampleStream)), n, sweepSampleRows)
	sort.Ints(idx)
	return idx
}

// chooseKExact is the sweep itself: every k of [2, MaxK] clustered and
// scored on every row of pts, on the caller's engine. o has its
// defaults applied.
func chooseKExact(eng *parallel.Engine, pts *matrix.Dense, o ChooseKOptions) (KSelection, error) {
	n := pts.Rows()
	maxK := o.MaxK
	// Small populations cannot support many clusters: below ~20 points
	// per cluster the silhouette sweep overfits sampling noise, so the
	// sweep is capped accordingly.
	if kCap := n / 20; maxK > kCap {
		maxK = kCap
	}
	if maxK < 2 {
		maxK = 2
	}
	if maxK > n {
		maxK = n
	}
	pn2, pnr := pointNorms(pts)
	var rows [][]float64
	if o.KMeans.naive {
		rows = pts.RowViews()
	}
	sel := KSelection{Scores: make([]float64, maxK)}
	results := make([]Result, maxK+1)
	kstats := make([]distStats, maxK+1)
	// k = 1 scores 0 by definition (silhouette undefined).
	sel.Scores[0] = 0
	obsSweeps.Inc()
	err := eng.ForEachIndexErr(maxK-1, func(i int) error {
		k := i + 2
		t := obs.StartTimer()
		kmOpts := o.KMeans
		kmOpts.Seed = o.KMeans.Seed + uint64(k)*101
		res, st, err := kMeansDenseWith(eng, pts, pn2, pnr, k, kmOpts)
		if err != nil {
			return err
		}
		results[k] = res
		kstats[k] = st
		if o.KMeans.naive {
			sel.Scores[k-1] = SimplifiedSilhouetteWith(eng, rows, res.Centers, res.Assign)
		} else {
			sel.Scores[k-1] = simplifiedSilhouetteDense(eng, pts, pn2, pnr, res.Centers, res.Assign)
		}
		obsSweepK.Inc()
		obsSweepSeconds.ObserveTimer(t)
		return nil
	})
	if err != nil {
		return KSelection{}, err
	}
	var st distStats
	for _, s := range kstats {
		st.computed += s.computed
		st.equivalent += s.equivalent
	}
	st.record()
	best := 0.0
	for _, s := range sel.Scores {
		if s > best {
			best = s
		}
	}
	sel.BestScore = best
	if best < o.MinScore {
		// No cluster structure: one phase covering everything.
		one, st1, err := kMeansDenseWith(eng, pts, pn2, pnr, 1, o.KMeans)
		if err != nil {
			return KSelection{}, err
		}
		if err := eng.Err(); err != nil {
			// Canceled mid-run: the result may cover a partial grid.
			return KSelection{}, err
		}
		st1.record()
		sel.K, sel.Best, sel.ChosenScore = 1, one, 0
		return sel, nil
	}
	for k := 2; k <= maxK; k++ {
		if sel.Scores[k-1] >= o.Threshold*best {
			sel.K = k
			sel.Best = results[k]
			sel.ChosenScore = sel.Scores[k-1]
			return sel, nil
		}
	}
	// Unreachable: the argmax always satisfies the threshold.
	return sel, fmt.Errorf("cluster: no k satisfied threshold")
}
