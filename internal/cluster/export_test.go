package cluster

import (
	"math"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
)

// RaceEnabled reports whether the test binary runs under the race
// detector (see raceEnabled).
const RaceEnabled = raceEnabled

// ForceExactSweep makes ChooseKDense sweep every row of any input, as it
// does at or below the subsample cap, until restore is called. It lets
// tests outside the package compare a pipeline's sampled formation with
// the exact one. Not safe to use from parallel tests.
func ForceExactSweep() (restore func()) {
	old := sweepSampleRows
	sweepSampleRows = math.MaxInt
	return func() { sweepSampleRows = old }
}

// IndependentSeedSweep is the reference for the chained sweep's
// statistical contract: ChooseKDense as it was when every k drew its own
// k-means++ seedings. Each k of [2, maxK] is KMeansDense at seed
// KMeans.Seed + 101·k, scored with SimplifiedSilhouette, and k is picked
// by the same threshold rule. Above the subsample cap it sweeps the same
// subsample ChooseKDense does and refines the chosen centers on every
// row the same way, so only the sweep's seeding differs.
func IndependentSeedSweep(pts *matrix.Dense, opts ChooseKOptions) (KSelection, error) {
	o := opts.withDefaults()
	n := pts.Rows()
	sweep := pts
	if n > sweepSampleRows {
		sweep = pts.GatherRows(sweepSample(n, o.KMeans.Seed))
	}
	maxK := sweepMaxK(sweep.Rows(), o.MaxK)
	rows := sweep.RowViews()
	sel := KSelection{Scores: make([]float64, maxK)}
	results := make([]Result, maxK+1)
	for k := 2; k <= maxK; k++ {
		km := o.KMeans
		km.Seed = o.KMeans.Seed + uint64(k)*101
		res, err := KMeansDense(sweep, k, km)
		if err != nil {
			return KSelection{}, err
		}
		results[k] = res
		sel.Scores[k-1] = SimplifiedSilhouette(rows, res.Centers, res.Assign)
	}
	for _, s := range sel.Scores {
		sel.BestScore = math.Max(sel.BestScore, s)
	}
	if sel.BestScore < o.MinScore {
		one, err := KMeansDense(sweep, 1, o.KMeans)
		if err != nil {
			return KSelection{}, err
		}
		sel.K, sel.Best = 1, one
	} else {
		for k := 2; k <= maxK; k++ {
			if sel.Scores[k-1] >= o.Threshold*sel.BestScore {
				sel.K, sel.Best, sel.ChosenScore = k, results[k], sel.Scores[k-1]
				break
			}
		}
	}
	if n > sweepSampleRows {
		var st distStats
		sel.Best = refineDense(parallel.New(o.Workers), pts, sel.Best.Centers, o.KMeans, &st)
	}
	return sel, nil
}
