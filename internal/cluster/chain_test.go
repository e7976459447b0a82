package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// The k sweep runs one k-means++ chain per restart and clusters every k
// from the chain's first k centers. These tests pin the chain's exact
// contract — at every k the sweep's clustering is KMeansDense at the
// base seed, for every worker count, on the naive and the pruned kernel
// alike — its cancellation, and its statistical agreement with the
// independent-seed sweep it replaced. scripts/check.sh runs them in the
// kernel-equivalence stage.

// dupPoints builds n rows cycling over `distinct` random points, so any
// k above distinct forces duplicate picks and empty clusters.
func dupPoints(n, d, distinct int, seed uint64) *matrix.Dense {
	rng := stats.NewRNG(seed)
	base := make([][]float64, distinct)
	for i := range base {
		base[i] = make([]float64, d)
		for j := range base[i] {
			base[i][j] = rng.Float64() * 10
		}
	}
	pts := matrix.NewDense(n, d)
	for i := 0; i < n; i++ {
		copy(pts.Row(i), base[i%distinct])
	}
	return pts
}

type chainCase struct {
	name string
	pts  *matrix.Dense
	maxK int
	opts Options
}

func chainCases() []chainCase {
	return []chainCase{
		{"blobs", blobZoo(1500, 16, 5, 7), 12, Options{Seed: 3}},
		{"blobs-low-dim", blobZoo(900, 3, 4, 9), 10, Options{Seed: 8, Restarts: 3, MaxIter: 40}},
		{"high-dim", blobZoo(600, 100, 3, 2), 8, Options{Seed: 1}},
		{"duplicates", dupPoints(400, 6, 5, 11), 12, Options{Seed: 6}},
		{"duplicates-k-near-n", dupPoints(24, 4, 3, 13), 20, Options{Seed: 2, Restarts: 2}},
	}
}

// sweepAllK runs the sweep's chains on pts and returns the clustering
// per k (index k).
func sweepAllK(t *testing.T, pts *matrix.Dense, maxK int, opts Options, workers int) []Result {
	t.Helper()
	var rows [][]float64
	if opts.naive {
		rows = pts.RowViews()
	}
	pn2, pnr := pointNorms(pts)
	res, _, err := sweepChains(parallel.New(workers), pts, rows, pn2, pnr, maxK, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChainPrefixMatchesKMeansDense is the chain's exact contract: the
// clustering at every swept k is KMeansDense(pts, k) at the base seed,
// bit for bit, including k above the number of distinct points.
func TestChainPrefixMatchesKMeansDense(t *testing.T) {
	for _, tc := range chainCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]Result, tc.maxK+1)
			for k := 2; k <= tc.maxK; k++ {
				res, err := KMeansDense(tc.pts, k, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				want[k] = res
			}
			for _, w := range workerSweep {
				got := sweepAllK(t, tc.pts, tc.maxK, tc.opts, w)
				for k := 2; k <= tc.maxK; k++ {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Fatalf("workers=%d k=%d: chain clustering is not KMeansDense (inertia %.17g vs %.17g, sizes %v vs %v)",
							w, k, got[k].Inertia, want[k].Inertia, got[k].Sizes, want[k].Sizes)
					}
				}
			}
		})
	}
}

// TestChooseKBestIsKMeansDense checks the same contract through the
// public entry: the chosen clustering is KMeansDense at the chosen k.
func TestChooseKBestIsKMeansDense(t *testing.T) {
	for _, tc := range chainCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range workerSweep {
				sel, err := ChooseKDense(tc.pts, ChooseKOptions{MaxK: tc.maxK, KMeans: tc.opts, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				want, err := KMeansDense(tc.pts, sel.K, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sel.Best, want) {
					t.Fatalf("workers=%d: chosen k=%d clustering is not KMeansDense (inertia %.17g vs %.17g)",
						w, sel.K, sel.Best.Inertia, want.Inertia)
				}
			}
		})
	}
}

// TestChainNaiveMatchesPruned runs the naive chain (seedPlusPlus plus
// the from-centers naive Lloyd) against the pruned one at every k.
func TestChainNaiveMatchesPruned(t *testing.T) {
	for _, tc := range chainCases() {
		t.Run(tc.name, func(t *testing.T) {
			naiveOpts := tc.opts
			naiveOpts.naive = true
			for _, w := range workerSweep {
				naive := sweepAllK(t, tc.pts, tc.maxK, naiveOpts, w)
				pruned := sweepAllK(t, tc.pts, tc.maxK, tc.opts, w)
				for k := 2; k <= tc.maxK; k++ {
					if !reflect.DeepEqual(naive[k], pruned[k]) {
						t.Fatalf("workers=%d k=%d: pruned chain diverged from naive (inertia %.17g vs %.17g)",
							w, k, pruned[k].Inertia, naive[k].Inertia)
					}
				}
			}
		})
	}
}

func TestChooseKCanceledMidChain(t *testing.T) {
	pts := blobZoo(2000, 8, 4, 5)
	o := ChooseKOptions{MaxK: 10, KMeans: Options{Seed: 2}, Workers: 1}
	// Context checks the chains make on their own, then the whole sweep.
	chainCtx := newCountingCtx(math.MaxInt64)
	pn2, pnr := pointNorms(pts)
	if _, _, err := sweepChains(parallel.New(1).WithContext(chainCtx), pts, nil, pn2, pnr, 10, o.KMeans); err != nil {
		t.Fatal(err)
	}
	fullCtx := newCountingCtx(math.MaxInt64)
	o.Ctx = fullCtx
	if _, err := ChooseKDense(pts, o); err != nil {
		t.Fatal(err)
	}
	if fullCtx.calls.Load() <= chainCtx.calls.Load() {
		t.Fatalf("sweep made %d context checks, the chains alone %d", fullCtx.calls.Load(), chainCtx.calls.Load())
	}
	for _, at := range []int64{2, chainCtx.calls.Load() / 3, chainCtx.calls.Load() / 2, chainCtx.calls.Load() - 1} {
		o.Ctx = newCountingCtx(at)
		sel, err := ChooseKDense(pts, o)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at check %d of %d: err=%v (k=%d), want context.Canceled",
				at, chainCtx.calls.Load(), err, sel.K)
		}
	}
}

// TestChainMatchesIndependentSeedSweep is the chain's statistical
// contract on the blob zoo: against the sweep that drew independent
// seedings per k, the chain must choose the same k and a partition that
// agrees with it (ARI ≥ 0.99). The cases sit at or below the subsample
// cap, where the sweep is exact.
func TestChainMatchesIndependentSeedSweep(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the independent-seed reference sweep at up to 4096×100; skipped in -short and under -race")
	}
	for _, tc := range []struct {
		n, d, k int
		seed    uint64
	}{
		{1500, 4, 2, 1},
		{2500, 8, 3, 2},
		{3000, 16, 5, 3},
		{4000, 32, 7, 4},
		{sweepSampleRows, 100, 4, 5},
		{2000, 12, 9, 6},
	} {
		pts := blobZoo(tc.n, tc.d, tc.k, tc.seed)
		o := ChooseKOptions{MaxK: 20, KMeans: Options{Seed: tc.seed}}
		chain, err := ChooseKDense(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := IndependentSeedSweep(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		ari := adjustedRand(chain.Best.Assign, ref.Best.Assign)
		t.Logf("n=%d d=%d blobs=%d: k chain=%d reference=%d, ARI %.4f", tc.n, tc.d, tc.k, chain.K, ref.K, ari)
		if chain.K != ref.K {
			t.Errorf("n=%d d=%d blobs=%d: chain chose k=%d, independent-seed sweep chose %d", tc.n, tc.d, tc.k, chain.K, ref.K)
		}
		if ari < 0.99 {
			t.Errorf("n=%d d=%d blobs=%d: ARI %.4f against the independent-seed partition, want ≥ 0.99", tc.n, tc.d, tc.k, ari)
		}
	}
}
