package cluster_test

import (
	"math"
	"testing"

	"simprof/internal/cluster"
	"simprof/internal/phase"
	"simprof/internal/sampling"
	"simprof/internal/synth"
)

// estimateQuality pools SimProf draws over formed traces: the RMS
// relative error of the estimate against each trace's oracle CPI, and
// how many 99.7% intervals miss the oracle.
type estimateQuality struct {
	sq          float64
	miss, draws int
	ks          []int
}

func (q *estimateQuality) rms() float64 { return math.Sqrt(q.sq / float64(q.draws)) }

func (q *estimateQuality) missRate() float64 { return float64(q.miss) / float64(q.draws) }

// TestSampledFormationEstimateContract is the statistical contract that
// replaces bit-identity above the sweep's subsample cap: on traces large
// enough to take the sampled path, the estimates drawn from sampled
// phase formation must be as good as those from the exact sweep — RMS
// relative error within 1.25× and a CI miss rate no higher than the
// exact path's plus a binomial tolerance. Phase agreement (ARI) is not
// gated here: on these traces the exact partitions themselves change
// with the Form seed, so it would measure the data, not the sampler.
func TestSampledFormationEstimateContract(t *testing.T) {
	// A statistical gate on sequential results: it has nothing for the
	// race detector to find that the worker-sweep tests do not cover,
	// and under it the six 12k-unit formations take minutes.
	if testing.Short() || raceEnabled {
		t.Skip("forms 3 traces of 12k units twice; skipped in -short and under -race")
	}
	const (
		units = 12_000
		n     = 20  // the service's default sample size
		draws = 200 // SimProf draws per formed trace
		level = 0.997
	)
	var sampled, exact estimateQuality
	for _, seed := range []uint64{1, 2, 3} {
		tr, err := synth.DefaultTrace(units, seed).Generate()
		if err != nil {
			t.Fatal(err)
		}
		oracle := tr.OracleCPI()
		form := func(q *estimateQuality) {
			ph, err := phase.Form(tr, phase.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			q.ks = append(q.ks, ph.K)
			for j := 1; j <= draws; j++ {
				sp, err := sampling.SimProf(ph, n, uint64(j))
				if err != nil {
					t.Fatal(err)
				}
				e := (sp.EstCPI - oracle) / oracle
				q.sq += e * e
				if ci := sp.CI(level); !ci.Contains(oracle) {
					q.miss++
				}
				q.draws++
			}
		}
		form(&sampled)
		restore := cluster.ForceExactSweep()
		form(&exact)
		restore()
	}
	t.Logf("sampled: k %v, rms err %.3f%%, CI misses %d/%d", sampled.ks, 100*sampled.rms(), sampled.miss, sampled.draws)
	t.Logf("exact:   k %v, rms err %.3f%%, CI misses %d/%d", exact.ks, 100*exact.rms(), exact.miss, exact.draws)
	if sampled.rms() > 1.25*exact.rms() {
		t.Errorf("sampled formation rms error %.3f%% exceeds 1.25 × the exact path's %.3f%%",
			100*sampled.rms(), 100*exact.rms())
	}
	// Three binomial standard deviations around the larger of the exact
	// path's miss rate and the nominal 0.3%, plus one draw of slack.
	p := math.Max(exact.missRate(), 1-level)
	tol := 3*math.Sqrt(p*(1-p)/float64(sampled.draws)) + 1/float64(sampled.draws)
	if sampled.missRate() > exact.missRate()+tol {
		t.Errorf("sampled formation CI miss rate %.2f%% exceeds the exact path's %.2f%% + %.2f%% tolerance",
			100*sampled.missRate(), 100*exact.missRate(), 100*tol)
	}
}
