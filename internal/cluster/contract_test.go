package cluster_test

import (
	"math"
	"testing"

	"simprof/internal/cluster"
	"simprof/internal/matrix"
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

const (
	contractUnits = 12_000 // above the sweep's subsample cap
	contractN     = 20     // the service's default sample size
	contractDraws = 200    // SimProf draws per formed trace
	contractLevel = 0.997
)

// add pools contractDraws SimProf draws on ph against the oracle CPI.
func (q *estimateQuality) add(t *testing.T, ph *phase.Phases, oracle float64) {
	t.Helper()
	q.ks = append(q.ks, ph.K)
	for j := 1; j <= contractDraws; j++ {
		sp, err := sampling.SimProf(ph, contractN, uint64(j))
		if err != nil {
			t.Fatal(err)
		}
		e := (sp.EstCPI - oracle) / oracle
		q.sq += e * e
		if ci := sp.CI(contractLevel); !ci.Contains(oracle) {
			q.miss++
		}
		q.draws++
	}
}

// checkNoWorse fails t unless got's estimates are as good as ref's: RMS
// relative error within 1.25× and a CI miss rate no higher than ref's
// plus three binomial standard deviations (around the larger of ref's
// miss rate and the nominal rate) and one draw of slack.
func checkNoWorse(t *testing.T, got, ref *estimateQuality, gotName, refName string) {
	t.Helper()
	t.Logf("%s: k %v, rms err %.3f%%, CI misses %d/%d", gotName, got.ks, 100*got.rms(), got.miss, got.draws)
	t.Logf("%s: k %v, rms err %.3f%%, CI misses %d/%d", refName, ref.ks, 100*ref.rms(), ref.miss, ref.draws)
	if got.rms() > 1.25*ref.rms() {
		t.Errorf("%s rms error %.3f%% exceeds 1.25 × the %s's %.3f%%",
			gotName, 100*got.rms(), refName, 100*ref.rms())
	}
	p := math.Max(ref.missRate(), 1-contractLevel)
	tol := 3*math.Sqrt(p*(1-p)/float64(got.draws)) + 1/float64(got.draws)
	if got.missRate() > ref.missRate()+tol {
		t.Errorf("%s CI miss rate %.2f%% exceeds the %s's %.2f%% + %.2f%% tolerance",
			gotName, 100*got.missRate(), refName, 100*ref.missRate(), 100*tol)
	}
}

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
	if testing.Short() || cluster.RaceEnabled {
		t.Skip("forms 3 traces of 12k units twice; skipped in -short and under -race")
	}
	var sampled, exact estimateQuality
	for _, seed := range []uint64{1, 2, 3} {
		tr, err := synth.DefaultTrace(contractUnits, seed).Generate()
		if err != nil {
			t.Fatal(err)
		}
		form := func(q *estimateQuality) {
			ph, err := phase.Form(tr, phase.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			q.add(t, ph, tr.OracleCPI())
		}
		form(&sampled)
		restore := cluster.ForceExactSweep()
		form(&exact)
		restore()
	}
	checkNoWorse(t, &sampled, &exact, "sampled formation", "exact path")
}

// TestChainedSweepEstimateContract is the statistical half of the
// chained sweep's contract: phases formed by the sweep that shares one
// k-means++ chain across k must estimate as well as phases formed by
// the independent-seed sweep it replaced (cluster.IndependentSeedSweep,
// on the same selected vectors, the same subsample and the same refine).
func TestChainedSweepEstimateContract(t *testing.T) {
	if testing.Short() || cluster.RaceEnabled {
		t.Skip("forms 3 traces of 12k units and re-sweeps them; skipped in -short and under -race")
	}
	var chain, ref estimateQuality
	for _, seed := range []uint64{1, 2, 3} {
		tr, err := synth.DefaultTrace(contractUnits, seed).Generate()
		if err != nil {
			t.Fatal(err)
		}
		oracle := tr.OracleCPI()
		ph, err := phase.Form(tr, phase.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if ph.DegradedFraction() != 0 {
			t.Fatalf("seed %d: trace has degraded units; the reference re-sweep assumes every unit trains", seed)
		}
		chain.add(t, ph, oracle)
		sel, err := cluster.IndependentSeedSweep(matrix.FromRows(ph.Vectors),
			cluster.ChooseKOptions{MaxK: 20, KMeans: cluster.Options{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		refPh := &phase.Phases{Trace: tr, Space: ph.Space, Vectors: ph.Vectors, K: sel.K,
			Assign: sel.Best.Assign, Centers: sel.Best.Centers}
		ref.add(t, refPh, oracle)
	}
	checkNoWorse(t, &chain, &ref, "chained sweep", "independent-seed sweep")
}
