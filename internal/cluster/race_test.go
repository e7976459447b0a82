//go:build race

package cluster

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the k sweep's compute loops about tenfold.
const raceEnabled = true
