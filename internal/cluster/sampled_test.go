package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// Above sweepSampleRows rows ChooseKDense sweeps a subsample and refines
// on every row. These tests pin that branch's contract: worker-count
// invariance, the exact path at or below the cap, a refine that only
// ever improves on the subsample's centers, cancellation, and agreement
// with the exact sweep wherever the data has clear cluster structure.
// scripts/check.sh runs them in the kernel-equivalence stage.

// blobZoo builds n points in d dimensions around k well-separated
// centers with cluster i holding a share of the points proportional to
// i+1, so the smallest cluster is the one a subsample sees least of.
// The centers sit at least 12 noise standard deviations apart.
func blobZoo(n, d, k int, seed uint64) *matrix.Dense {
	rng := stats.NewRNG(seed)
	centers := make([][]float64, 0, k)
	for len(centers) < k {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.Float64() * 40
		}
		far := true
		for _, o := range centers {
			if SqDist(c, o) < 12*12 {
				far = false
				break
			}
		}
		if far {
			centers = append(centers, c)
		}
	}
	total := k * (k + 1) / 2
	pts := matrix.NewDense(n, d)
	for i := 0; i < n; i++ {
		// Spread the cluster labels over the rows by weight i+1.
		slot := i % total
		c := 0
		for slot >= c+1 {
			slot -= c + 1
			c++
		}
		row := pts.Row(i)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()
		}
	}
	return pts
}

// adjustedRand is the adjusted Rand index of two partitions of the
// same points: 1 for identical partitions up to relabeling, about 0 for
// independent ones.
func adjustedRand(a, b []int) float64 {
	type pair struct{ x, y int }
	joint := map[pair]int{}
	ra, rb := map[int]int{}, map[int]int{}
	for i := range a {
		joint[pair{a[i], b[i]}]++
		ra[a[i]]++
		rb[b[i]]++
	}
	c2 := func(m int) float64 { return float64(m) * float64(m-1) / 2 }
	var index, sa, sb float64
	for _, m := range joint {
		index += c2(m)
	}
	for _, m := range ra {
		sa += c2(m)
	}
	for _, m := range rb {
		sb += c2(m)
	}
	expected := sa * sb / c2(len(a))
	maxIndex := (sa + sb) / 2
	if maxIndex == expected {
		return 1
	}
	return (index - expected) / (maxIndex - expected)
}

func sampledOpts(seed uint64, workers int) ChooseKOptions {
	return ChooseKOptions{MaxK: 10, KMeans: Options{Seed: seed}, Workers: workers}
}

func TestSampledSweepBitIdenticalAcrossWorkers(t *testing.T) {
	pts := blobZoo(6000, 16, 5, 41)
	base, err := ChooseKDense(pts, sampledOpts(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Best.Assign) != pts.Rows() {
		t.Fatalf("refined assignment covers %d of %d rows", len(base.Best.Assign), pts.Rows())
	}
	for _, w := range workerSweep[1:] {
		got, err := ChooseKDense(pts, sampledOpts(3, w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: sampled sweep diverged from serial (k=%d vs %d, inertia %.17g vs %.17g)",
				w, got.K, base.K, got.Best.Inertia, base.Best.Inertia)
		}
	}
}

func TestSweepAtOrBelowCapIsExact(t *testing.T) {
	for _, n := range []int{sweepSampleRows, 1500} {
		pts := blobZoo(n, 8, 4, uint64(n))
		o := sampledOpts(9, 2)
		got, err := ChooseKDense(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := chooseKExact(parallel.New(2), pts, o.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: ChooseKDense is not the exact sweep (k=%d vs %d)", n, got.K, want.K)
		}
	}
}

// subsampleSweep replays the first phase of a sampled ChooseKDense.
func subsampleSweep(t *testing.T, pts *matrix.Dense, o ChooseKOptions, eng *parallel.Engine) KSelection {
	t.Helper()
	o = o.withDefaults()
	sub := pts.GatherRows(sweepSample(pts.Rows(), o.KMeans.Seed))
	sel, err := chooseKExact(eng, sub, o)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestRefineNeverRaisesInertia(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  *matrix.Dense
		seed uint64
	}{
		{"blobs", blobZoo(7000, 12, 6, 5), 1},
		{"overlapping", matrix.FromRows(benchPoints(5000, 6, 9, 8)), 2},
		{"no-structure", matrix.FromRows(benchPoints(4500, 4, 1, 3)), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := sampledOpts(tc.seed, 0)
			sel, err := ChooseKDense(tc.pts, o)
			if err != nil {
				t.Fatal(err)
			}
			init := subsampleSweep(t, tc.pts, o, parallel.New(0))
			var start float64
			for i := 0; i < tc.pts.Rows(); i++ {
				_, d := NearestCenter(tc.pts.Row(i), init.Best.Centers)
				start += d
			}
			if sel.K != init.K {
				t.Fatalf("refine changed k: %d, subsample chose %d", sel.K, init.K)
			}
			if sel.Best.Inertia > start {
				t.Fatalf("refined inertia %.17g above the subsample centers' %.17g", sel.Best.Inertia, start)
			}
		})
	}
}

// countingCtx reports cancellation from the cancelAt-th Err call on.
// On a one-worker engine the calls come in a fixed order (one per chunk
// claimed, one per loop end), which lets a test cancel at a chosen
// point of the run.
type countingCtx struct {
	context.Context
	calls, cancelAt atomic.Int64
}

func newCountingCtx(cancelAt int64) *countingCtx {
	c := &countingCtx{Context: context.Background()}
	c.cancelAt.Store(cancelAt)
	return c
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) >= c.cancelAt.Load() {
		return context.Canceled
	}
	return nil
}

func TestSampledSweepCanceledDuringRefine(t *testing.T) {
	pts := blobZoo(6000, 8, 3, 17)
	o := sampledOpts(4, 1)
	// Calls the sweep on the subsample makes, then calls the whole run
	// makes: everything in between is the refine.
	sweepCtx := newCountingCtx(math.MaxInt64)
	subsampleSweep(t, pts, o, parallel.New(1).WithContext(sweepCtx))
	fullCtx := newCountingCtx(math.MaxInt64)
	o.Ctx = fullCtx
	if _, err := ChooseKDense(pts, o); err != nil {
		t.Fatal(err)
	}
	sweepCalls, allCalls := sweepCtx.calls.Load(), fullCtx.calls.Load()
	if allCalls-sweepCalls < 2 {
		t.Fatalf("refine made %d context checks, want a check per chunk", allCalls-sweepCalls)
	}
	o.Ctx = newCountingCtx((sweepCalls + allCalls) / 2)
	sel, err := ChooseKDense(pts, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-refine: err=%v (k=%d), want context.Canceled", err, sel.K)
	}
}

// TestSampledSweepMatchesExactOnBlobs is the quality half of the
// contract: where the data has clear cluster structure, the subsample
// must see it too — same k, and a refined partition that agrees with
// the exact sweep's (ARI ≥ 0.99).
func TestSampledSweepMatchesExactOnBlobs(t *testing.T) {
	for _, tc := range []struct {
		n, d, k int
		seed    uint64
	}{
		{4500, 4, 2, 1},
		{5000, 8, 3, 2},
		{6000, 16, 5, 3},
		{8000, 32, 7, 4},
		{10000, 100, 4, 5},
	} {
		pts := blobZoo(tc.n, tc.d, tc.k, tc.seed)
		o := sampledOpts(tc.seed, 0)
		sampled, err := ChooseKDense(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := chooseKExact(parallel.New(0), pts, o.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		ari := adjustedRand(sampled.Best.Assign, exact.Best.Assign)
		t.Logf("n=%d d=%d blobs=%d: k sampled=%d exact=%d, ARI %.4f", tc.n, tc.d, tc.k, sampled.K, exact.K, ari)
		if sampled.K != exact.K {
			t.Errorf("n=%d d=%d blobs=%d: sampled sweep chose k=%d, exact chose %d", tc.n, tc.d, tc.k, sampled.K, exact.K)
		}
		if ari < 0.99 {
			t.Errorf("n=%d d=%d blobs=%d: ARI %.4f against the exact partition, want ≥ 0.99", tc.n, tc.d, tc.k, ari)
		}
	}
}

// TestSampledSweepTelemetry checks the sampled-sweep counter and the
// refine histogram move only for inputs above the cap, and that
// recording them changes nothing in the result.
func TestSampledSweepTelemetry(t *testing.T) {
	pts := blobZoo(5000, 8, 3, 23)
	off, err := ChooseKDense(pts, sampledOpts(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	sampled0, refines0 := obsSweepSampled.Value(), obsRefineIters.Count()
	on, err := ChooseKDense(pts, sampledOpts(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatal("telemetry changed the sampled sweep's result")
	}
	if got := obsSweepSampled.Value() - sampled0; got != 1 {
		t.Fatalf("cluster.sweep_sampled moved by %d, want 1", got)
	}
	if got := obsRefineIters.Count() - refines0; got != 1 {
		t.Fatalf("cluster.refine_iters observed %d refines, want 1", got)
	}
	if _, err := ChooseKDense(pts.GatherRows([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), sampledOpts(5, 0)); err != nil {
		t.Fatal(err)
	}
	if got := obsSweepSampled.Value() - sampled0; got != 1 {
		t.Fatalf("an exact sweep moved cluster.sweep_sampled (now +%d)", got)
	}
}
