package cluster

import "math"

// ForceExactSweep makes ChooseKDense sweep every row of any input, as it
// does at or below the subsample cap, until restore is called. It lets
// tests outside the package compare a pipeline's sampled formation with
// the exact one. Not safe to use from parallel tests.
func ForceExactSweep() (restore func()) {
	old := sweepSampleRows
	sweepSampleRows = math.MaxInt
	return func() { sweepSampleRows = old }
}
