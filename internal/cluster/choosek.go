package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// Sweep telemetry: how long each k of the silhouette sweep costs and
// how many sweeps ran. Per-k timings use a histogram (not spans)
// because the restart chains run concurrently on the worker pool.
var (
	obsSweeps = obs.NewCounter("cluster.choosek_sweeps",
		"ChooseK sweeps run")
	obsSweepK = obs.NewCounter("cluster.choosek_ks",
		"k values swept (clustering + silhouette each)")
	obsSweepSeconds = obs.NewHistogram("cluster.choosek_k_seconds",
		"wall seconds per Lloyd run at a swept k, from one restart chain's first k centers (the shared k-means++ seeding and the silhouette are not included)",
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
// KMeans.Seed apart from the per-restart seeds.
const sweepSampleStream = 0x5eed5a3b1e

// KSelection records the outcome of the k sweep used by phase formation.
// At or below the sweep's subsample cap, Best (and the clustering behind
// each score) is bit for bit KMeansDense at the chosen k and the base
// KMeans.Seed. Above the cap the scores are silhouettes of the
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
// Each k-means restart is one k-means++ chain up to MaxK, shared by
// every k of the sweep: the clustering at k runs Lloyd from the chain's
// first k centers, so a restart relaxes MaxK seeding centers instead of
// Σk. The restarts fan out across the worker pool, and each k keeps the
// lowest (inertia, restart index), so the sweep stays deterministic.
// At each k the clustering is KMeansDense(pts, k, KMeans) exactly; the
// k's are thereby compared under common random numbers (one seeding
// sequence serves every k) — see DESIGN.md §18.
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
//
// Restart r runs one k-means++ chain up to maxK from SplitSeed(Seed, r)
// (sweepChain); the first k centers of that chain are exactly restart
// r's seeding in KMeansDense(pts, k, Options{Seed: Seed}), so the k-th
// clustering — the lowest (inertia, restart index) over the chains — is
// bit for bit KMeansDense at the base seed, for every k and every
// Workers setting.
func chooseKExact(eng *parallel.Engine, pts *matrix.Dense, o ChooseKOptions) (KSelection, error) {
	maxK := sweepMaxK(pts.Rows(), o.MaxK)
	pn2, pnr := pointNorms(pts)
	var rows [][]float64
	if o.KMeans.naive {
		rows = pts.RowViews()
	}
	sel := KSelection{Scores: make([]float64, maxK)}
	// k = 1 scores 0 by definition (silhouette undefined).
	sel.Scores[0] = 0
	obsSweeps.Inc()
	results, st, err := sweepChains(eng, pts, rows, pn2, pnr, maxK, o.KMeans)
	if err != nil {
		return KSelection{}, err
	}
	st.record()
	err = eng.ForEachIndexErr(maxK-1, func(i int) error {
		k := i + 2
		res := results[k]
		if o.KMeans.naive {
			sel.Scores[k-1] = SimplifiedSilhouetteWith(eng, rows, res.Centers, res.Assign)
		} else {
			sel.Scores[k-1] = simplifiedSilhouetteDense(eng, pts, pn2, pnr, res.Centers, res.Assign)
		}
		obsSweepK.Inc()
		return nil
	})
	if err != nil {
		return KSelection{}, err
	}
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

// sweepMaxK is the largest k a sweep over n rows tries, given the
// requested bound. Small populations cannot support many clusters: below
// ~20 points per cluster the silhouette sweep overfits sampling noise,
// so the sweep is capped accordingly.
func sweepMaxK(n, maxK int) int {
	if kCap := n / 20; maxK > kCap {
		maxK = kCap
	}
	if maxK < 2 {
		maxK = 2
	}
	if maxK > n {
		maxK = n
	}
	return maxK
}

// sweepChains clusters pts at every k of [2, maxK] with Restarts chains
// (see chooseKExact) and returns the winning clustering per k (index k;
// 0 and 1 unused) with the chains' summed distance accounting. On
// cancellation it returns the context error.
func sweepChains(eng *parallel.Engine, pts *matrix.Dense, rows [][]float64, pn2, pnr []float64,
	maxK int, opts Options) ([]Result, distStats, error) {
	km := opts.withDefaults()
	best := newSweepBest(maxK)
	rstats := make([]distStats, km.Restarts)
	eng.ForEachIndex(km.Restarts, func(r int) {
		sweepChain(eng, pts, rows, pn2, pnr, maxK, r, km, best, &rstats[r])
	})
	if err := eng.Err(); err != nil {
		// Canceled mid-chain: some k may hold partial clusterings.
		return nil, distStats{}, err
	}
	var st distStats
	for _, s := range rstats {
		st.computed += s.computed
		st.equivalent += s.equivalent
	}
	return best.res, st, nil
}

// sweepBest keeps, for every k of a sweep, the clustering with the lowest
// (inertia, restart index) offered so far: KMeansDense's strict-<
// scan in restart index order, made independent of the order in which
// concurrent chains finish.
type sweepBest struct {
	mu      sync.Mutex
	res     []Result // k → best clustering
	restart []int    // k → its restart index, −1 while none
}

func newSweepBest(maxK int) *sweepBest {
	b := &sweepBest{res: make([]Result, maxK+1), restart: make([]int, maxK+1)}
	for k := range b.res {
		b.res[k].Inertia = math.Inf(1)
		b.restart[k] = -1
	}
	return b
}

func (b *sweepBest) offer(k, r int, res Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.res[k].Inertia
	if res.Inertia < cur || (res.Inertia == cur && b.restart[k] >= 0 && r < b.restart[k]) {
		b.res[k], b.restart[k] = res, r
	}
}

// sweepChain is restart r of the k sweep: one k-means++ chain up to maxK
// from SplitSeed(km.Seed, r). As soon as the chain's k-th center has
// been picked (and, on the pruned path, relaxed), a Lloyd run starts
// from its first k centers and offers its clustering for k. The pruned
// path runs every k on the chain's one scratch, resliced to k, and takes
// the seeding's handover state as is. The chain stops early once the
// engine's context ends; the caller checks Err.
func sweepChain(eng *parallel.Engine, pts *matrix.Dense, rows [][]float64, pn2, pnr []float64,
	maxK, r int, km Options, best *sweepBest, st *distStats) {
	rng := stats.NewRNG(stats.SplitSeed(km.Seed, uint64(r)))
	run := func(k int, lloyd func() Result) bool {
		if eng.Err() != nil {
			return false
		}
		if k < 2 {
			return true
		}
		t := obs.StartTimer()
		res := lloyd()
		obsRestarts.Inc()
		obsLloydIters.Observe(float64(res.Iters))
		obsSweepSeconds.ObserveTimer(t)
		best.offer(k, r, res)
		return true
	}
	if km.naive {
		seedPlusPlus(rows, maxK, rng, eng, func(k int, centers [][]float64) bool {
			return run(k, func() Result {
				init := make([][]float64, k)
				for c := range init {
					init[c] = append([]float64(nil), centers[c]...)
				}
				return lloydNaiveFrom(rows, init, km, eng)
			})
		})
		return
	}
	d := pts.Cols()
	sc := getScratch(pts.Rows(), maxK, d)
	defer putScratch(sc)
	seedPlusPlusDense(pts, pn2, pnr, maxK, rng, eng, sc, st, func(k int, centers *matrix.Dense) bool {
		return run(k, func() Result {
			sc.setK(k, d)
			init := matrix.NewDense(k, d)
			copy(init.Data(), centers.Data()[:k*d])
			return lloydFrom(pts, pn2, pnr, init, true, km, eng, sc, st)
		})
	})
}
