// Package cluster implements the clustering layer of SimProf's phase
// formation: k-means with k-means++ seeding, silhouette scoring (both the
// exact pairwise form and the centroid-based simplified form), and the
// paper's k-selection rule (smallest k within 90% of the best silhouette
// among k ∈ [1, 20]).
//
// The production kernels run on flat matrix.Dense inputs with a
// Hamerly-style bound-pruned Lloyd pass: per-point lower bounds on the
// second-closest center plus per-center drift skip most SqDist calls,
// and cached squared norms prune the full scans that remain. Every
// distance that is computed uses the same SqDist kernel in the same
// order as the naive pass, and every pruning test carries a float-safety
// margin that only ever forces extra work, so results are bit-for-bit
// identical to the retained naive reference kernel (see DESIGN.md §12).
//
// Every kernel runs on the shared internal/parallel engine. Results are
// bit-for-bit identical for any worker count: point loops run over a
// fixed chunk grid with per-chunk partial sums merged in chunk index
// order, restarts draw from pre-derived PCG seeds and are compared in
// restart index order, and the k sweep keeps, for each k, the lowest
// (inertia, restart index) over its restart chains.
package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// Clustering telemetry: per-restart convergence behaviour, the cost of
// the k sweep, and how much work the bound-pruned kernel avoided.
// Recorded only while obs is enabled.
var (
	obsRestarts = obs.NewCounter("cluster.restarts",
		"independent k-means restarts run")
	obsLloydIters = obs.NewHistogram("cluster.lloyd_iters",
		"Lloyd iterations per restart until convergence",
		1, 2, 4, 8, 16, 32, 64)
	obsConvergenceDelta = obs.NewHistogram("cluster.convergence_delta",
		"final |Δinertia| of each restart (absolute, pre-tolerance scale)",
		1e-12, 1e-9, 1e-6, 1e-3, 1, 1e3)
	obsEmptyReseeds = obs.NewCounter("cluster.empty_reseeds",
		"empty clusters re-seeded at the farthest point")
	obsDistComputed = obs.NewCounter("cluster.distances_computed",
		"point–center distance evaluations executed by the pruned kernel")
	obsDistPruned = obs.NewCounter("cluster.distances_pruned",
		"distance evaluations skipped by Hamerly bounds and cached-norm tests")
)

// pointChunk is the fixed chunk size for loops over points. It is part
// of the determinism contract: the chunk grid (and therefore the order
// of floating-point merges) depends on it and on the input size only,
// never on the worker count.
const pointChunk = 256

// Float-safety margins of the pruning tests. Both are relative slacks
// around 1e-9 — five orders of magnitude above the ~1e-14 relative error
// a chunk-length dot product or a triangle-inequality subtraction can
// accumulate — so a pruning test can only ever fail toward computing the
// distance, never toward skipping one that could win. Bit-for-bit
// equivalence with the naive kernel rests on these being conservative,
// not on them being tight.
const (
	// boundSlack shrinks the second-closest lower bound every time it is
	// set or decayed by center drift.
	boundSlack = 1e-9
	// normSlack pads the cached-norm test (‖p‖−‖c‖)² > current-best
	// before a candidate center is skipped.
	normSlack = 1e-9
	// elkanGuard/elkanSlack are the margins of the triangle-inequality
	// skip d(p,c) ≥ d(b,c) − d(p,b): the gap g must exceed elkanGuard ×
	// the magnitudes entering the subtraction (so cancellation cannot
	// have eaten it), and g² must clear the squared threshold by a
	// relative elkanSlack. Both sit orders of magnitude above the
	// ~1e-14 relative error of the distances involved.
	elkanGuard = 1e-7
	elkanSlack = 1e-6
)

// scanSkipMinDim gates the per-candidate skip chains (Elkan triangle
// inequality, cached-norm test) inside full scans. Each skip test costs
// a handful of flops; below this dimensionality a SqDist is about as
// cheap, so the chains are pure overhead and the scan runs lean. The
// gate depends only on the input dimensionality — never on workers or
// telemetry — and skipping less is always valid, so results are
// unchanged either way.
const scanSkipMinDim = 6

// Result is the outcome of one k-means run.
type Result struct {
	K       int
	Centers [][]float64 // K × D centroids
	Assign  []int       // per-point cluster index
	Sizes   []int       // points per cluster
	Inertia float64     // Σ squared distance to assigned center
	Iters   int
}

// Options controls KMeans.
type Options struct {
	MaxIter  int    // maximum Lloyd iterations (default 100)
	Restarts int    // independent restarts, best inertia wins (default 4)
	Seed     uint64 // RNG seed (deterministic)
	Tol      float64
	// Workers bounds the concurrency of the run (restarts and the
	// chunked Lloyd passes). 0 selects GOMAXPROCS; 1 runs serially.
	// The result is identical for every setting.
	Workers int
	// naive selects the retained reference kernel (plain Lloyd over
	// [][]float64 rows, no pruning). It exists for the equivalence suite
	// and the naive-vs-pruned benchmarks; the pruned kernel is the
	// production path and returns bit-identical results.
	naive bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// SqDist returns the squared Euclidean distance between two vectors.
func SqDist(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination for the loop below
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between two vectors.
func Dist(a, b []float64) float64 { return math.Sqrt(SqDist(a, b)) }

// NearestCenter returns the index of the center closest to p and the
// squared distance to it.
func NearestCenter(p []float64, centers [][]float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for c, center := range centers {
		if d := SqDist(p, center); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// distStats counts the distance evaluations of one pruned run: computed
// is the number of SqDist calls actually executed, equivalent is what
// the naive kernel would have executed for the same passes. The
// difference is the pruned count reported to telemetry.
type distStats struct {
	computed   int64
	equivalent int64
}

func (s distStats) record() {
	if s.equivalent == 0 {
		return
	}
	obsDistComputed.Add(s.computed)
	obsDistPruned.Add(s.equivalent - s.computed)
}

// KMeans clusters points (N × D, row-major) into k clusters using Lloyd's
// algorithm with k-means++ seeding. It returns an error for invalid
// input; k larger than N is clamped to N.
func KMeans(points [][]float64, k int, opts Options) (Result, error) {
	if len(points) == 0 {
		return Result{}, fmt.Errorf("cluster: no points")
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("cluster: k=%d must be positive", k)
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return Result{}, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), d)
		}
	}
	return KMeansDense(matrix.FromRows(points), k, opts)
}

// KMeansDense is KMeans on a flat matrix (no copy, no per-row pointer
// chasing). This is the entry the phase-formation pipeline uses once its
// vectors already live in a Dense.
func KMeansDense(pts *matrix.Dense, k int, opts Options) (Result, error) {
	eng := parallel.New(opts.Workers)
	pn2, pnr := pointNorms(pts)
	res, st, err := kMeansDenseWith(eng, pts, pn2, pnr, k, opts)
	st.record()
	return res, err
}

// pointNorms returns the squared and plain Euclidean norms of every row.
// Both are cached once per clustering problem and shared across restarts
// and the whole k sweep.
func pointNorms(pts *matrix.Dense) (pn2, pnr []float64) {
	pn2 = pts.RowNorms2(nil)
	pnr = make([]float64, len(pn2))
	for i, v := range pn2 {
		pnr[i] = math.Sqrt(v)
	}
	return pn2, pnr
}

// kMeansDenseWith is KMeansDense on a caller-supplied engine and
// pre-computed point norms, so that an already parallel caller (the
// ChooseK sweep) shares one concurrency budget — and one norm cache —
// with the restarts and Lloyd passes it spawns.
func kMeansDenseWith(eng *parallel.Engine, pts *matrix.Dense, pn2, pnr []float64,
	k int, opts Options) (Result, distStats, error) {
	n := pts.Rows()
	if n == 0 {
		return Result{}, distStats{}, fmt.Errorf("cluster: no points")
	}
	if k <= 0 {
		return Result{}, distStats{}, fmt.Errorf("cluster: k=%d must be positive", k)
	}
	if k > n {
		k = n
	}
	o := opts.withDefaults()

	// Each restart derives its own PCG seed up front, runs independently
	// and lands in its own slot; the winner is picked by scanning slots
	// in restart index order (strict <, so ties keep the lowest index —
	// exactly the serial semantics).
	results := make([]Result, o.Restarts)
	rstats := make([]distStats, o.Restarts)
	var rows [][]float64
	if o.naive {
		rows = pts.RowViews()
	}
	eng.ForEachIndex(o.Restarts, func(r int) {
		rng := stats.NewRNG(stats.SplitSeed(o.Seed, uint64(r)))
		if o.naive {
			results[r] = lloyd(rows, k, rng, o, eng)
		} else {
			results[r] = lloydPruned(pts, pn2, pnr, k, rng, o, eng, &rstats[r])
		}
	})
	best := Result{Inertia: math.Inf(1)}
	for _, res := range results {
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	var st distStats
	for _, s := range rstats {
		st.computed += s.computed
		st.equivalent += s.equivalent
	}
	return best, st, nil
}

// lloydScratch holds the per-chunk accumulators and per-point state of
// one seeding and Lloyd run. Runs borrow it from a pool
// (getScratch/putScratch); each restart chain of the k sweep holds one
// for all its k's (see setK).
type lloydScratch struct {
	chunks   int
	sizes    [][]int     // chunk → cluster → count
	sums     [][]float64 // chunk → k*d flattened partial centroid sums
	inertia  []float64   // chunk → partial inertia
	computed []int64     // chunk → SqDist calls executed (pruned kernel)
	partial  []float64   // chunk → seeding D² partial sums
	lb2      []float64   // point → squared lower bound on dist to 2nd-closest center
	dist2    []float64   // point → squared dist to assigned center (this pass)
	d2       []float64   // point → seeding D² weight
	seedArg  []int32     // point → chosen center achieving d2 (seeding)
	sq2      []float64   // point → squared lower bound on 2nd-nearest (seeding)
	cn2      []float64   // center → squared norm
	cnr      []float64   // center → norm
	ccd      []float64   // k×k inter-center distances (Elkan skip)
	qcc      []float64   // k×k squared half inter-center distances (compare-means skip)
	dup      []int32     // center → first earlier identical center (class root), or −1
	reps     []int32     // distinct-center representatives (class roots), in index order
	mult     []int32     // class root → number of identical centers in its class
	touched  []int32     // seeding: class → epoch of last sq2 touch-up
	dPrev    []float64   // seeding: dist from earlier chosen centers to the newest
	qSkip    []float64   // seeding: per-class squared fast-skip threshold
	qB       []float64   // seeding: per-class sq2 bound when fast-skipped
}

// ensure (re)sizes the scratch for an n×? problem with k clusters in d
// dims, reusing existing capacity. lb2 is zeroed: a fresh run must start
// with no pruning information.
func (s *lloydScratch) ensure(n, k, d int) {
	chunks := parallel.Chunks(n, pointChunk)
	s.chunks = chunks
	if cap(s.inertia) < chunks {
		s.inertia = make([]float64, chunks)
		s.computed = make([]int64, chunks)
		s.partial = make([]float64, chunks)
	}
	s.inertia = s.inertia[:chunks]
	s.computed = s.computed[:chunks]
	s.partial = s.partial[:chunks]
	if cap(s.sizes) < chunks {
		sizes := make([][]int, chunks)
		copy(sizes, s.sizes)
		s.sizes = sizes
		sums := make([][]float64, chunks)
		copy(sums, s.sums)
		s.sums = sums
	}
	s.sizes = s.sizes[:chunks]
	s.sums = s.sums[:chunks]
	for c := 0; c < chunks; c++ {
		if cap(s.sizes[c]) < k {
			s.sizes[c] = make([]int, k)
		}
		if cap(s.sums[c]) < k*d {
			s.sums[c] = make([]float64, k*d)
		}
	}
	if cap(s.lb2) < n {
		s.lb2 = make([]float64, n)
		s.dist2 = make([]float64, n)
		s.d2 = make([]float64, n)
		s.seedArg = make([]int32, n)
		s.sq2 = make([]float64, n)
	}
	s.lb2 = s.lb2[:n]
	s.dist2 = s.dist2[:n]
	s.d2 = s.d2[:n]
	s.seedArg = s.seedArg[:n]
	s.sq2 = s.sq2[:n]
	for i := range s.lb2 {
		s.lb2[i] = 0
	}
	if cap(s.cn2) < k {
		s.cn2 = make([]float64, k)
		s.cnr = make([]float64, k)
		s.dPrev = make([]float64, k)
		s.qSkip = make([]float64, k)
		s.qB = make([]float64, k)
		s.dup = make([]int32, k)
		s.reps = make([]int32, k)
		s.mult = make([]int32, k)
		s.touched = make([]int32, k)
	}
	s.dPrev = s.dPrev[:k]
	s.qSkip = s.qSkip[:k]
	s.qB = s.qB[:k]
	s.touched = s.touched[:k]
	if cap(s.ccd) < k*k {
		s.ccd = make([]float64, k*k)
		s.qcc = make([]float64, k*k)
	}
	s.setK(k, d)
}

// setK reslices the Lloyd side of the scratch (per-chunk sizes and
// sums, the center geometry tables) to k centers, within the capacity
// ensure reserved. A k sweep's chain sizes its scratch once for the
// largest k and runs the Lloyd of every smaller k on the same buffers;
// the seeding side (d2, seedArg, sq2, partial and the per-pick tables)
// is left untouched, so the chain can continue after each Lloyd.
func (s *lloydScratch) setK(k, d int) {
	for c := 0; c < s.chunks; c++ {
		s.sizes[c] = s.sizes[c][:k]
		s.sums[c] = s.sums[c][:k*d]
	}
	s.cn2 = s.cn2[:k]
	s.cnr = s.cnr[:k]
	s.dup = s.dup[:k]
	s.reps = s.reps[:k]
	s.mult = s.mult[:k]
	s.ccd = s.ccd[:k*k]
	s.qcc = s.qcc[:k*k]
}

func newLloydScratch(n, k, d int) *lloydScratch {
	s := new(lloydScratch)
	s.ensure(n, k, d)
	return s
}

var scratchPool = sync.Pool{New: func() any { return new(lloydScratch) }}

func getScratch(n, k, d int) *lloydScratch {
	s := scratchPool.Get().(*lloydScratch)
	s.ensure(n, k, d)
	return s
}

func putScratch(s *lloydScratch) { scratchPool.Put(s) }

// assignPoints runs one chunked assignment pass against centers: it
// fills assign, merges per-chunk cluster sizes into sizes (chunk index
// order) and returns the inertia. When accumulate is true it also
// gathers per-chunk centroid partial sums for the update step. This is
// the naive reference pass; the production path is lloydPruned.
func assignPoints(eng *parallel.Engine, points [][]float64, centers [][]float64,
	assign []int, sizes []int, sc *lloydScratch, accumulate bool) float64 {
	n := len(points)
	d := len(points[0])
	eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
		szs := sc.sizes[c]
		for i := range szs {
			szs[i] = 0
		}
		var sums []float64
		if accumulate {
			sums = sc.sums[c]
			for i := range sums {
				sums[i] = 0
			}
		}
		var inertia float64
		for i := lo; i < hi; i++ {
			p := points[i]
			ci, dist := NearestCenter(p, centers)
			assign[i] = ci
			szs[ci]++
			inertia += dist
			if accumulate {
				row := sums[ci*d : ci*d+d]
				row = row[:len(p)] // bounds-check elimination
				for j, v := range p {
					row[j] += v
				}
			}
		}
		sc.inertia[c] = inertia
	})
	for i := range sizes {
		sizes[i] = 0
	}
	var inertia float64
	for c := 0; c < sc.chunks; c++ {
		for i, s := range sc.sizes[c] {
			sizes[i] += s
		}
		inertia += sc.inertia[c]
	}
	return inertia
}

// lloyd is the retained naive reference kernel: k-means++ seeding, then
// plain Lloyd over [][]float64 rows, every point–center distance
// computed every pass. The equivalence suite asserts lloydPruned
// reproduces it bit-for-bit.
func lloyd(points [][]float64, k int, rng *rand.Rand, o Options, eng *parallel.Engine) Result {
	res := lloydNaiveFrom(points, seedPlusPlus(points, k, rng, eng, nil), o, eng)
	obsRestarts.Inc()
	obsLloydIters.Observe(float64(res.Iters))
	return res
}

// lloydNaiveFrom iterates the naive kernel from the given centers, which
// it takes ownership of.
func lloydNaiveFrom(points [][]float64, centers [][]float64, o Options, eng *parallel.Engine) Result {
	n, d, k := len(points), len(points[0]), len(centers)
	assign := make([]int, n)
	sizes := make([]int, k)
	sc := newLloydScratch(n, k, d)
	// Double-buffered centroids: next is rebuilt from the merged chunk
	// sums every iteration, then swapped with centers.
	next := make([][]float64, k)
	for c := range next {
		next[c] = make([]float64, d)
	}
	prev := math.Inf(1)
	var inertia float64
	var iter int
	for iter = 0; iter < o.MaxIter; iter++ {
		// Fused assignment + partial-sum pass.
		inertia = assignPoints(eng, points, centers, assign, sizes, sc, true)
		// Update step: merge the per-chunk partial sums in chunk index
		// order, then normalize.
		for c := range next {
			row := next[c]
			for j := range row {
				row[j] = 0
			}
		}
		for c := 0; c < sc.chunks; c++ {
			sums := sc.sums[c]
			for cl := 0; cl < k; cl++ {
				part := sums[cl*d : cl*d+d]
				row := next[cl][:len(part)] // bounds-check elimination
				for j, v := range part {
					row[j] += v
				}
			}
		}
		for c := range next {
			if sizes[c] == 0 {
				obsEmptyReseeds.Inc()
				// Re-seed an empty cluster at the point farthest from
				// its center — standard k-means repair.
				far, farD := 0, -1.0
				for i, p := range points {
					if dd := SqDist(p, centers[assign[i]]); dd > farD {
						far, farD = i, dd
					}
				}
				copy(next[c], points[far])
				continue
			}
			inv := 1 / float64(sizes[c])
			for j := range next[c] {
				next[c][j] *= inv
			}
		}
		centers, next = next, centers
		if math.Abs(prev-inertia) <= o.Tol*(1+prev) {
			break
		}
		prev = inertia
	}
	// Final assignment pass so Assign/Sizes/Inertia are consistent with
	// the returned (post-update) centers.
	inertia = assignPoints(eng, points, centers, assign, sizes, sc, false)
	if !math.IsInf(prev, 1) {
		obsConvergenceDelta.Observe(math.Abs(prev - inertia))
	}
	return Result{K: k, Centers: centers, Assign: assign, Sizes: sizes, Inertia: inertia, Iters: iter + 1}
}

// lloydPruned is the production Lloyd kernel on the flat matrix. It
// maintains, per point, a squared lower bound lb2 on the distance to the
// second-closest center. Each pass computes the one distance to the
// point's current center (which the naive kernel needs for the inertia
// anyway); when that distance is strictly below the bound — tested in
// the squared domain, paying a sqrt only for points the cheap prefilter
// deems plausibly prunable — the other k−1 distances are skipped: the
// assignment provably cannot change, and strictness means the naive
// scan would have kept the same index even under ties. Otherwise it
// falls back to a full scan that replicates NearestCenter's order and
// tie-breaking exactly. The scan skips candidates the compare-means
// test excludes (d2a < (d(a,cc)/2)² proves cc strictly farther than the
// assigned center; the threshold then folds into lb2 so the bound stays
// valid) and, above the dimensionality gate, candidates excluded by the
// Elkan triangle inequality or the cached-norm bound. Bounds decay by
// the per-center drift between passes (triangle inequality), with
// boundSlack margins absorbing float rounding. See DESIGN.md §12 for
// the invariant and the equivalence argument.
func lloydPruned(pts *matrix.Dense, pn2, pnr []float64, k int, rng *rand.Rand,
	o Options, eng *parallel.Engine, st *distStats) Result {
	sc := getScratch(pts.Rows(), k, pts.Cols())
	defer putScratch(sc)
	centers := seedPlusPlusDense(pts, pn2, pnr, k, rng, eng, sc, st, nil)
	res := lloydFrom(pts, pn2, pnr, centers, true, o, eng, sc, st)
	obsRestarts.Inc()
	obsLloydIters.Observe(float64(res.Iters))
	return res
}

// refineDense runs the pruned Lloyd kernel on every point of pts from
// the given centers instead of a k-means++ seeding: the second phase of
// a subsampled k sweep. The centers are copied, never mutated.
func refineDense(eng *parallel.Engine, pts *matrix.Dense, init [][]float64,
	opts Options, st *distStats) Result {
	sc := getScratch(pts.Rows(), len(init), pts.Cols())
	defer putScratch(sc)
	pn2, pnr := pointNorms(pts)
	res := lloydFrom(pts, pn2, pnr, matrix.FromRows(init), false, opts.withDefaults(), eng, sc, st)
	obsRefineIters.Observe(float64(res.Iters))
	return res
}

// lloydFrom iterates the pruned kernel from the given centers, which it
// takes ownership of. When seeded is true the centers come from
// seedPlusPlusDense on the same scratch, and its handover state
// (seedArg, d2, sq2) makes the first pass pure bookkeeping. Otherwise the
// first pass starts cold: every point is assigned center 0 with a zero
// lower bound, so the prune never fires and every point takes the full
// scan — NearestCenter's strict-< lowest-index choice, bit for bit —
// which fills the same state the seeding handover would have.
func lloydFrom(pts *matrix.Dense, pn2, pnr []float64, centers *matrix.Dense, seeded bool,
	o Options, eng *parallel.Engine, sc *lloydScratch, st *distStats) Result {
	n, d, k := pts.Rows(), pts.Cols(), centers.Rows()
	next := matrix.NewDense(k, d)
	assign := make([]int, n)
	sizes := make([]int, k)
	lb2, dist2 := sc.lb2, sc.dist2
	cn2, cnr, ccd, qcc := sc.cn2, sc.cnr, sc.ccd, sc.qcc
	useScanSkips := d >= scanSkipMinDim
	// centerGeometry refreshes the k×k compare-means threshold table
	// qcc[a·k+cc] = (d(a,cc)/2)² (with margin, sqrt-free — it is a
	// quarter of the squared distance) and, above the dimensionality
	// gate, the per-center norm cache and inter-center distance table
	// for the Elkan-style scan skip. O(k²·d), negligible next to the
	// O(n·k·d) pass it prunes.
	dup, reps, mult := sc.dup, sc.reps, sc.mult
	nreps := 0
	centerGeometry := func(ctr *matrix.Dense) {
		cd := ctr.Data()
		for a := 0; a < k; a++ {
			dup[a] = -1
			qcc[a*k+a] = 0
			ra := cd[a*d : a*d+d]
			for b := a + 1; b < k; b++ {
				q := SqDist(ra, cd[b*d:b*d+d]) * 0.25 * (1 - 1e-7)
				qcc[a*k+b] = q
				qcc[b*k+a] = q
			}
		}
		// Duplicate centers (exactly equal coordinate vectors — frequent
		// when k exceeds the number of distinct behaviours) yield
		// bit-identical SqDist results, so the scan visits only one
		// representative per identity class: the class root (lowest
		// index), which under strict-< is exactly the index the naive
		// lowest-index tie-break would keep. SqDist(a,b) == 0 iff every
		// coordinate is numerically equal, and the first identical
		// earlier center is transitively the root.
		nreps = 0
		for b := 0; b < k; b++ {
			dup[b] = -1
			for a := 0; a < b; a++ {
				if qcc[a*k+b] == 0 {
					dup[b] = int32(a)
					break
				}
			}
			if dup[b] < 0 {
				mult[b] = 1
				reps[nreps] = int32(b)
				nreps++
			} else {
				mult[dup[b]]++
			}
		}
		if !useScanSkips {
			return
		}
		for c := 0; c < k; c++ {
			var s2 float64
			for _, v := range ctr.Row(c) {
				s2 += v * v
			}
			cn2[c] = s2
			cnr[c] = math.Sqrt(s2)
		}
		for a := 0; a < k; a++ {
			ccd[a*k+a] = 0
			for b := a + 1; b < k; b++ {
				dd := Dist(ctr.Row(a), ctr.Row(b))
				ccd[a*k+b] = dd
				ccd[b*k+a] = dd
			}
		}
	}
	centerGeometry(centers)

	// Handover from seeding: the relax passes already computed every
	// point's nearest seeded center (with NearestCenter's exact
	// lowest-index tie-breaking), its squared distance, and a valid
	// lower bound on the second-nearest. The first Lloyd pass therefore
	// runs in reuse mode — pure bookkeeping, zero distance computations
	// — and still produces bit-identical assignment, sizes, partial
	// sums and inertia. Without a seeding, assign and lb2 stay zero (as
	// allocated and as ensure left them) for the cold first pass.
	if seeded {
		for i := 0; i < n; i++ {
			assign[i] = int(sc.seedArg[i])
		}
		copy(dist2, sc.d2)
		for i := 0; i < n; i++ {
			lb2[i] = sc.sq2[i] * ((1 - boundSlack) * (1 - boundSlack))
		}
	}

	// Pending center drift from the previous update step, folded into
	// every lb exactly once at the start of the next pass. driftArg is
	// the center that moved farthest; points assigned to it decay by the
	// second-largest drift instead (their own center's motion cannot
	// bring other centers closer).
	driftMax, driftSecond := 0.0, 0.0
	driftArg := -1

	pass := func(accumulate, reuse bool) float64 {
		dMax, dSec, dArg := driftMax, driftSecond, driftArg
		pdata := pts.Data()
		cdata := centers.Data()
		eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
			szs := sc.sizes[c]
			for i := range szs {
				szs[i] = 0
			}
			var sums []float64
			if accumulate {
				sums = sc.sums[c]
				for i := range sums {
					sums[i] = 0
				}
			}
			var inertia float64
			var comp int64
			for i := lo; i < hi; i++ {
				if reuse {
					ci := assign[i]
					szs[ci]++
					inertia += dist2[i]
					if accumulate {
						p := pdata[i*d : i*d+d]
						row := sums[ci*d : ci*d+d]
						row = row[:len(p)] // bounds-check elimination
						for j, v := range p {
							row[j] += v
						}
					}
					continue
				}
				p := pdata[i*d : i*d+d]
				a := assign[i]
				d2a := SqDist(p, cdata[a*d:a*d+d])
				comp++
				// Prune prefilter in the squared domain: the stored
				// (undecayed) bound only shrinks under drift decay, so
				// d2a ≥ lb2 already rules the prune out without a sqrt.
				// Only plausible candidates pay the sqrt for the exact
				// drift-decayed test; either way the decay is folded
				// exactly once, because a failed prune falls through to
				// the scan, which rewrites lb2 against the current
				// (post-drift) centers.
				pruned := false
				if bq := lb2[i]; bq > 0 && d2a < bq {
					delta := dMax
					if a == dArg {
						delta = dSec
					}
					bv := (math.Sqrt(bq)-delta)*(1-boundSlack) - delta*boundSlack
					if bv > 0 && d2a < bv*bv*(1-boundSlack) {
						// The current center is strictly closer than any
						// other can be: assignment unchanged, scan
						// skipped; the decayed bound persists.
						dist2[i] = d2a
						lb2[i] = bv * bv
						pruned = true
					}
				}
				if !pruned {
					// The scan visits only representative centers: a
					// duplicate can never win under strict <, and its
					// contribution to the second-best is folded back in
					// below via the class multiplicity.
					best, bestD, secD := -1, math.Inf(1), math.Inf(1)
					bestR := -1.0 // √bestD, computed lazily per best
					minSkipQ := math.Inf(1)
					qrow := qcc[a*k : a*k+k]
					for ri := 0; ri < nreps; ri++ {
						cc := int(reps[ri])
						var dd float64
						if cc == a {
							dd = d2a
						} else {
							if q := qrow[cc]; d2a < q {
								// Compare-means: d(p,a) < d(a,cc)/2 puts
								// cc strictly farther than a, so cc can
								// affect neither the best nor the bound
								// — provided its threshold, itself a
								// valid lower bound on d(p,cc)², is
								// folded into lb2 below.
								if q < minSkipQ {
									minSkipQ = q
								}
								continue
							}
							if useScanSkips {
								if best >= 0 {
									// Triangle inequality against the current
									// best: d(p,cc) ≥ d(best,cc) − d(p,best).
									if bestR < 0 {
										bestR = math.Sqrt(bestD)
									}
									cb := ccd[best*k+cc]
									if g := cb - bestR; g > elkanGuard*(cb+bestR) {
										if gg := g * g; gg-secD > elkanSlack*(gg+secD) {
											// Provably ≥ the current second-
											// best: cannot affect best, bestD
											// or secD.
											continue
										}
									}
								}
								df := pnr[i] - cnr[cc]
								if nb := df * df; nb > secD && nb-secD > normSlack*(nb+pn2[i]+cn2[cc]) {
									continue
								}
							}
							dd = SqDist(p, cdata[cc*d:cc*d+d])
							comp++
						}
						if dd < bestD {
							secD = bestD
							best, bestD = cc, dd
							bestR = -1
						} else if dd < secD {
							secD = dd
						}
					}
					if mult[best] > 1 {
						// A duplicate of the winner sits at exactly
						// bestD, so the true second-best distance is
						// bestD itself.
						secD = bestD
					}
					assign[i] = best
					dist2[i] = bestD
					l2 := secD * ((1 - boundSlack) * (1 - boundSlack))
					if minSkipQ < l2 {
						l2 = minSkipQ
					}
					lb2[i] = l2
				}
				ci := assign[i]
				szs[ci]++
				inertia += dist2[i]
				if accumulate {
					row := sums[ci*d : ci*d+d]
					row = row[:len(p)] // bounds-check elimination
					for j, v := range p {
						row[j] += v
					}
				}
			}
			sc.inertia[c] = inertia
			sc.computed[c] = comp
		})
		for i := range sizes {
			sizes[i] = 0
		}
		var inertia float64
		for c := 0; c < sc.chunks; c++ {
			for i, s := range sc.sizes[c] {
				sizes[i] += s
			}
			inertia += sc.inertia[c]
			st.computed += sc.computed[c]
		}
		st.equivalent += int64(n) * int64(k)
		return inertia
	}

	prev := math.Inf(1)
	var inertia float64
	var iter int
	for iter = 0; iter < o.MaxIter; iter++ {
		inertia = pass(true, seeded && iter == 0)
		// Update step: merge the per-chunk partial sums in chunk index
		// order, then normalize — identical arithmetic to the naive
		// kernel.
		nd := next.Data()
		for j := range nd {
			nd[j] = 0
		}
		for c := 0; c < sc.chunks; c++ {
			sums := sc.sums[c]
			for j, v := range sums {
				nd[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				obsEmptyReseeds.Inc()
				// Re-seed an empty cluster at the point farthest from
				// its center. dist2 caches exactly the SqDist the naive
				// kernel recomputes here.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					if dist2[i] > farD {
						far, farD = i, dist2[i]
					}
				}
				copy(next.Row(c), pts.Row(far))
				continue
			}
			inv := 1 / float64(sizes[c])
			row := next.Row(c)
			for j := range row {
				row[j] *= inv
			}
		}
		// Per-center drift for the next pass's bound decay.
		driftMax, driftSecond, driftArg = 0, 0, -1
		for c := 0; c < k; c++ {
			dd := Dist(centers.Row(c), next.Row(c))
			if dd > driftMax {
				driftSecond = driftMax
				driftMax, driftArg = dd, c
			} else if dd > driftSecond {
				driftSecond = dd
			}
		}
		centers, next = next, centers
		centerGeometry(centers)
		if math.Abs(prev-inertia) <= o.Tol*(1+prev) {
			break
		}
		prev = inertia
	}
	// Final assignment pass so Assign/Sizes/Inertia are consistent with
	// the returned (post-update) centers.
	inertia = pass(false, false)
	if !math.IsInf(prev, 1) {
		obsConvergenceDelta.Observe(math.Abs(prev - inertia))
	}
	return Result{K: k, Centers: centers.RowViews(), Assign: assign, Sizes: sizes,
		Inertia: inertia, Iters: iter + 1}
}

// seedPlusPlus picks k initial centers with the k-means++ D² weighting.
// The squared distance to the nearest chosen center is maintained
// incrementally (each new center can only lower it), which turns the
// O(n·k²·d) recompute-everything seeding into O(n·k·d). The distance
// update is chunked on the engine; the weighted draw itself stays
// sequential because each pick feeds the next. This is the naive
// reference; the production path is seedPlusPlusDense.
//
// prefix, when non-nil, is the k sweep's per-prefix hook: it is called
// with j and the centers picked so far as soon as the j-th center is
// picked, for j = 1..k, and returning false ends the seeding early. The
// first j picks of a k-center seeding consume the RNG exactly as a
// j-center seeding does, so centers[:j] is the j-center seeding.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand, eng *parallel.Engine,
	prefix func(j int, centers [][]float64) bool) [][]float64 {
	n := len(points)
	centers := make([][]float64, 0, k)
	first := rng.IntN(n)
	centers = append(centers, append([]float64(nil), points[first]...))
	if prefix != nil && !prefix(1, centers) {
		return centers
	}
	d2 := make([]float64, n)
	chunks := parallel.Chunks(n, pointChunk)
	partial := make([]float64, chunks)
	relax := func(center []float64) float64 {
		eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
			var sum float64
			for i := lo; i < hi; i++ {
				if dd := SqDist(points[i], center); dd < d2[i] {
					d2[i] = dd
				}
				sum += d2[i]
			}
			partial[c] = sum
		})
		var total float64
		for _, p := range partial {
			total += p
		}
		return total
	}
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	total := relax(centers[0])
	for len(centers) < k {
		var pick int
		if total == 0 {
			pick = rng.IntN(n) // all points identical to some center
		} else {
			pick = drawLinear(d2, rng.Float64()*total)
		}
		centers = append(centers, append([]float64(nil), points[pick]...))
		if prefix != nil && !prefix(len(centers), centers) {
			return centers
		}
		if len(centers) < k {
			total = relax(centers[len(centers)-1])
		}
	}
	return centers
}

// seedPlusPlusDense is the production k-means++ seeding on the flat
// matrix. Same draw sequence as seedPlusPlus — the RNG consumption and
// the picked indices are bit-identical — but the relax pass skips
// points whose cached-norm bound proves the new center cannot lower
// their D² weight, and each draw resolves through the chunk partial
// sums instead of a full O(n) scan.
//
// prefix, when non-nil, is called with j and the centers matrix (rows
// 0..j−1 picked) as soon as the j-th center has been relaxed, for
// j = 1..k; returning false ends the seeding early. At that point the
// scratch's handover state (seedArg, d2, sq2) is exactly that of a
// j-center seeding, so the hook may run lloydFrom(seeded) for j on the
// same scratch after setK(j, d): the Lloyd run touches only the Lloyd
// side of the scratch, and the chain continues from unchanged state.
func seedPlusPlusDense(pts *matrix.Dense, pn2, pnr []float64, k int, rng *rand.Rand,
	eng *parallel.Engine, sc *lloydScratch, st *distStats,
	prefix func(j int, centers *matrix.Dense) bool) *matrix.Dense {
	n, d := pts.Rows(), pts.Cols()
	centers := matrix.NewDense(k, d)
	first := rng.IntN(n)
	copy(centers.Row(0), pts.Row(first))
	d2, partial := sc.d2, sc.partial
	seedArg, sq2 := sc.seedArg, sc.sq2
	pdata := pts.Data()
	useNorm := d >= scanSkipMinDim
	// Touch-up dedup: a duplicate pick's sq2 touch-up (below) is
	// idempotent while d2 and seedArg are unchanged, i.e. until the next
	// full relax pass. touched[j] records the epoch of the last touch-up
	// against chosen center j, so repeated duplicate picks of the same
	// value — the common case once k exceeds the number of distinct
	// points — cost O(1) instead of O(n).
	touched := sc.touched[:k]
	for j := range touched {
		touched[j] = -1
	}
	epoch := int32(0)
	// relax folds chosen center m into the D² weights. Two exact skips
	// avoid most SqDist calls. The main one is a per-class threshold in
	// the squared domain: a point whose weight is achieved by chosen
	// center a has √d2[i] exactly its distance to a, so the triangle
	// inequality d(p,cₘ) ≥ d(cₐ,cₘ) − d(p,cₐ) proves the new center
	// cannot lower the weight whenever d(p,cₐ) < d(cₐ,cₘ)/2 — i.e.
	// whenever d2[i] < qSkip[a], one comparison against a threshold
	// precomputed per (a, m) pair with a 1e-7 relative margin. The
	// second is the cached-norm bound (‖p‖−‖cₘ‖)², kept only at
	// dimensionalities where it beats just computing the distance. Both
	// only ever skip when the new center provably cannot lower d2[i],
	// so the weight vector — and therefore the draw sequence — is
	// bit-identical to the reference seeding.
	//
	// Alongside the exact minimum, relax maintains sq2: a conservative
	// squared lower bound on the distance to the *second*-nearest
	// chosen center (exact distances when they were computed, the skip
	// bounds shrunk by a safety factor when they were not; qB[a] is the
	// fast path's bound d(cₐ,cₘ)²/4). After the last center is relaxed,
	// (seedArg, d2, sq2) hand the first Lloyd pass its assignment,
	// inertia and Hamerly bounds for free.
	relax := func(m int, prev float64) float64 {
		center := centers.Row(m)
		var cs float64
		for _, v := range center {
			cs += v * v
		}
		cn2m, cnrm := cs, math.Sqrt(cs)
		dPrev := sc.dPrev[:m]
		qSkip, qB := sc.qSkip[:m], sc.qB[:m]
		dupJ := -1
		for j := 0; j < m; j++ {
			pa := Dist(centers.Row(j), center)
			dPrev[j] = pa
			if pa == 0 && dupJ < 0 {
				dupJ = j
			}
			half := 0.5 * pa * (1 - 1e-7)
			qSkip[j] = half * half * (1 - 1e-7)
			qB[j] = qSkip[j] * (1 - 1e-6)
		}
		if dupJ >= 0 {
			// The new center is coordinate-identical to chosen center
			// dupJ (a duplicate pick — routine once k exceeds the number
			// of distinct points). SqDist against it returns the same
			// bits relax dupJ already folded in, so no weight can drop:
			// d2, the partial sums and the total are all unchanged, and
			// the whole pass is skipped. Only sq2 needs a touch-up: for
			// points whose minimum is achieved by dupJ, the duplicate
			// sits at the minimum distance itself, capping the
			// second-nearest bound at d2 (with margin).
			if touched[dupJ] != epoch {
				touched[dupJ] = epoch
				for i := 0; i < n; i++ {
					if int(seedArg[i]) == dupJ {
						if b := d2[i] * (1 - 1e-6); b < sq2[i] {
							sq2[i] = b
						}
					}
				}
			}
			if m+1 < k {
				st.equivalent += int64(n)
			}
			return prev
		}
		eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
			var sum float64
			var comp int64
			for i := lo; i < hi; i++ {
				cur := d2[i]
				if m > 0 {
					if a := seedArg[i]; cur < qSkip[a] {
						if b := qB[a]; b < sq2[i] {
							sq2[i] = b
						}
						sum += cur
						continue
					}
					if useNorm {
						df := pnr[i] - cnrm
						if nb := df * df; nb > cur && nb-cur > normSlack*(nb+pn2[i]+cn2m) {
							if b := nb * (1 - 1e-6); b < sq2[i] {
								sq2[i] = b
							}
							sum += cur
							continue
						}
					}
				}
				dd := SqDist(pdata[i*d:i*d+d], center)
				comp++
				if dd < cur {
					if cur < sq2[i] {
						sq2[i] = cur // the old minimum is now second
					}
					d2[i] = dd
					seedArg[i] = int32(m)
					cur = dd
				} else if dd < sq2[i] {
					sq2[i] = dd
				}
				sum += cur
			}
			partial[c] = sum
			sc.computed[c] = comp
		})
		var total float64
		for c := 0; c < sc.chunks; c++ {
			total += partial[c]
			st.computed += sc.computed[c]
		}
		if m+1 < k {
			// The naive seeding relaxes centers 0..k−2; the extra relax
			// of the last center (which feeds the Lloyd handover) is not
			// part of the naive-equivalent workload.
			st.equivalent += int64(n)
		}
		epoch++
		return total
	}
	for i := range d2 {
		d2[i] = math.Inf(1)
		sq2[i] = math.Inf(1)
	}
	total := relax(0, 0)
	if prefix != nil && !prefix(1, centers) {
		return centers
	}
	for count := 1; count < k; count++ {
		var pick int
		if total == 0 {
			pick = rng.IntN(n) // all points identical to some center
		} else {
			pick = drawWeighted(d2, partial, total, rng.Float64()*total)
		}
		copy(centers.Row(count), pts.Row(pick))
		// The naive seeding stops relaxing after the second-to-last
		// pick (the weights are never drawn from again); relaxing the
		// last center too completes the handover state. Draws and RNG
		// consumption are unaffected.
		total = relax(count, total)
		if prefix != nil && !prefix(count+1, centers) {
			break
		}
	}
	return centers
}

// drawLinear is the sequential weighted draw: the smallest index i with
// w[0]+…+w[i] ≥ u under strict left-to-right accumulation, or the last
// index when the running sum never reaches u. It is both the reference
// semantics of the k-means++ draw and the fallback drawWeighted resolves
// through whenever float re-association makes the fast path ambiguous.
func drawLinear(w []float64, u float64) int {
	var acc float64
	for i, v := range w {
		acc += v
		if acc >= u {
			return i
		}
	}
	return len(w) - 1
}

// drawWeighted returns exactly drawLinear(w, u), using the per-chunk
// partial sums over the pointChunk grid (the relax pass already produces
// them) to locate the crossing chunk first, so a draw costs
// O(n/pointChunk + pointChunk) instead of O(n). The composed chunk
// prefix differs from the sequential prefix only by float
// re-association, which is bounded well below guard; any accumulator
// that lands inside the ±guard ambiguity band falls back to drawLinear,
// so the returned index — and therefore the seeding's RNG consumption
// and pick sequence — is always exactly the sequential one.
func drawWeighted(w, partial []float64, total, u float64) int {
	n := len(w)
	guard := total * (1e-12 + float64(n)*1e-15)
	acc := 0.0
	chunk := -1
	for c, ps := range partial {
		if acc+ps >= u-guard {
			chunk = c
			break
		}
		acc += ps
	}
	if chunk < 0 {
		// Even with the guard the sum never reaches u: the sequential
		// scan cannot reach it either.
		return n - 1
	}
	lo := chunk * pointChunk
	hi := lo + pointChunk
	if hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		acc += w[i]
		if acc >= u+guard {
			return i // clear crossing: every earlier prefix was < u−guard
		}
		if acc >= u-guard {
			return drawLinear(w, u) // ambiguous: resolve exactly
		}
	}
	// The chunk's composed end cleared u−guard but the re-accumulated
	// prefix did not: boundary noise, resolve exactly.
	return drawLinear(w, u)
}
