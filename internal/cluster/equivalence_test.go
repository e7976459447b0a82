package cluster

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// The bound-pruned Lloyd kernel's contract is bit-for-bit equivalence
// with the retained naive kernel: same centers, same assignments, same
// inertia floats, for every worker count, telemetry on or off. These
// tests are the enforcement (scripts/check.sh runs them as the
// kernel-equivalence stage with -count=2).

func runBoth(t *testing.T, pts [][]float64, k int, opts Options) (naive, pruned Result) {
	t.Helper()
	naiveOpts := opts
	naiveOpts.naive = true
	naive, err := KMeans(pts, k, naiveOpts)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err = KMeans(pts, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return naive, pruned
}

func TestPrunedMatchesNaiveBitForBit(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  [][]float64
		k    int
		seed uint64
	}{
		{"blobs", benchPoints(400, 24, 5, 17), 5, 9},
		{"more-clusters-than-structure", benchPoints(120, 8, 2, 3), 7, 4},
		{"k1", benchPoints(100, 12, 3, 5), 1, 2},
		{"high-dim", benchPoints(150, 64, 4, 11), 4, 8},
		{"k-equals-n-ish", benchPoints(24, 4, 3, 13), 20, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range workerSweep {
				naive, pruned := runBoth(t, tc.pts, tc.k, Options{Seed: tc.seed, Workers: w})
				if !reflect.DeepEqual(naive, pruned) {
					t.Fatalf("workers=%d: pruned diverged from naive\nnaive:  inertia=%.17g iters=%d sizes=%v\npruned: inertia=%.17g iters=%d sizes=%v",
						w, naive.Inertia, naive.Iters, naive.Sizes,
						pruned.Inertia, pruned.Iters, pruned.Sizes)
				}
			}
		})
	}
}

// TestPrunedMatchesNaiveProperty fuzzes the equivalence over random
// clustering problems: random sizes, dimensions, cluster counts, k and
// worker counts — including adversarial duplicate points (tie-heavy
// inputs are where a sloppy pruning rule would diverge first).
func TestPrunedMatchesNaiveProperty(t *testing.T) {
	prop := func(seed uint64, kRaw, wRaw, dRaw uint8) bool {
		n := 30 + int(seed%300)
		d := 2 + int(dRaw%12)
		k := int(kRaw%8) + 1
		workers := []int{1, 2, 8}[int(wRaw)%3]
		pts := benchPoints(n, d, 3, seed)
		// Duplicate a slice of points to force exact distance ties.
		for i := 0; i < n/8; i++ {
			copy(pts[n-1-i], pts[i])
		}
		opts := Options{Seed: seed, Workers: workers}
		naiveOpts := opts
		naiveOpts.naive = true
		naive, errA := KMeans(pts, k, naiveOpts)
		pruned, errB := KMeans(pts, k, opts)
		if (errA == nil) != (errB == nil) {
			return false
		}
		return reflect.DeepEqual(naive, pruned)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPrunedMatchesNaiveWithTelemetry pins the telemetry-independence
// half of the acceptance contract: enabling obs must not perturb a
// single float of either kernel.
func TestPrunedMatchesNaiveWithTelemetry(t *testing.T) {
	pts := benchPoints(300, 16, 4, 19)
	offNaive, offPruned := runBoth(t, pts, 4, Options{Seed: 7})
	obs.Enable()
	defer obs.Disable()
	onNaive, onPruned := runBoth(t, pts, 4, Options{Seed: 7})
	if !reflect.DeepEqual(offNaive, onNaive) {
		t.Fatal("telemetry changed the naive kernel result")
	}
	if !reflect.DeepEqual(offPruned, onPruned) {
		t.Fatal("telemetry changed the pruned kernel result")
	}
	if !reflect.DeepEqual(onNaive, onPruned) {
		t.Fatal("pruned diverged from naive with telemetry enabled")
	}
}

func TestChooseKPrunedMatchesNaive(t *testing.T) {
	pts := benchPoints(600, 32, 4, 23)
	for _, w := range workerSweep {
		naiveSel, err := ChooseK(pts, ChooseKOptions{MaxK: 10,
			KMeans: Options{Seed: 5, naive: true}, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		prunedSel, err := ChooseK(pts, ChooseKOptions{MaxK: 10,
			KMeans: Options{Seed: 5}, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(naiveSel, prunedSel) {
			t.Fatalf("workers=%d: ChooseK diverged (k=%d scores=%v vs k=%d scores=%v)",
				w, naiveSel.K, naiveSel.Scores, prunedSel.K, prunedSel.Scores)
		}
	}
}

// TestPruningEffectiveness asserts the kernel actually prunes: on
// clustered synthetic data most of the naive kernel's distance
// computations must be skipped, otherwise the bounds machinery is dead
// weight.
func TestPruningEffectiveness(t *testing.T) {
	pts := matrix.FromRows(benchPoints(2000, 24, 6, 31))
	pn2, pnr := pointNorms(pts)
	_, st, err := kMeansDenseWith(parallel.New(1), pts, pn2, pnr, 6, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.equivalent == 0 || st.computed == 0 {
		t.Fatalf("missing distance accounting: %+v", st)
	}
	frac := float64(st.equivalent-st.computed) / float64(st.equivalent)
	if frac <= 0.5 {
		t.Fatalf("pruned only %.1f%% of %d distance computations, want >50%%",
			frac*100, st.equivalent)
	}
	t.Logf("pruned %.1f%% (%d of %d distance computations)",
		frac*100, st.equivalent-st.computed, st.equivalent)
}

// TestDrawWeightedMatchesLinear pins satellite semantics: the chunked
// weighted draw must return exactly the sequential scan's index for any
// weights and any u — including u at 0, at the total, and beyond it.
func TestDrawWeightedMatchesLinear(t *testing.T) {
	prop := func(seed uint64, uRaw uint16) bool {
		rng := stats.NewRNG(seed)
		n := 1 + int(seed%2000)
		w := make([]float64, n)
		for i := range w {
			switch rng.IntN(4) {
			case 0:
				w[i] = 0 // exact-zero weights stress the ≥ boundary
			case 1:
				w[i] = rng.Float64() * 1e-12
			default:
				w[i] = rng.Float64() * 100
			}
		}
		chunks := parallel.Chunks(n, pointChunk)
		partial := make([]float64, chunks)
		var total float64
		for c := 0; c < chunks; c++ {
			lo, hi := c*pointChunk, (c+1)*pointChunk
			if hi > n {
				hi = n
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += w[i]
			}
			partial[c] = sum
			total += sum
		}
		if total == 0 {
			return true // the seeding draws uniformly in this case
		}
		u := float64(uRaw) / math.MaxUint16 * total * 1.001
		return drawWeighted(w, partial, total, u) == drawLinear(w, u)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedingPickSequencePreserved asserts the dense seeding consumes
// the RNG identically to the reference seeding and picks the same
// centers (satellite: same RNG consumption, same chosen indices).
func TestSeedingPickSequencePreserved(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		n := 40 + int(seed%400)
		k := int(kRaw%10) + 1
		rows := benchPoints(n, 6, 3, seed)
		// Duplicates create zero weights in the D² distribution.
		for i := 0; i < n/6; i++ {
			copy(rows[n-1-i], rows[i])
		}
		pts := matrix.FromRows(rows)
		pn2, pnr := pointNorms(pts)
		eng := parallel.New(1)
		rngA := stats.NewRNG(seed)
		refCenters := seedPlusPlus(rows, k, rngA, eng, nil)
		rngB := stats.NewRNG(seed)
		sc := newLloydScratch(n, k, 6)
		var st distStats
		denseCenters := seedPlusPlusDense(pts, pn2, pnr, k, rngB, eng, sc, &st, nil)
		for c := range refCenters {
			if !reflect.DeepEqual(refCenters[c], denseCenters.Row(c)) {
				return false
			}
		}
		// Identical residual RNG state ⇒ identical consumption.
		return rngA.Uint64() == rngB.Uint64()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNearestSetMatchesNearestCenter pins the cached-norm classifier
// against the plain scan, including empty center sets.
func TestNearestSetMatchesNearestCenter(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		rng := stats.NewRNG(seed)
		k := int(kRaw % 8) // 0 centers allowed
		d := 3 + int(seed%9)
		centers := make([][]float64, k)
		for c := range centers {
			centers[c] = make([]float64, d)
			for j := range centers[c] {
				centers[c][j] = rng.Float64() * 50
			}
		}
		set := NewNearestSet(centers)
		for trial := 0; trial < 20; trial++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64() * 50
			}
			if trial%5 == 0 && k > 0 {
				copy(p, centers[rng.IntN(k)]) // exact hits
			}
			wantC, wantD := NearestCenter(p, centers)
			gotC, gotD := set.Nearest(p)
			if wantC != gotC || wantD != gotD {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSimplifiedSilhouetteDenseMatches pins the squared-domain,
// norm-pruned silhouette against the reference implementation.
func TestSimplifiedSilhouetteDenseMatches(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		n := 30 + int(seed%300)
		k := int(kRaw%6) + 2
		rows := benchPoints(n, 10, k, seed)
		pts := matrix.FromRows(rows)
		pn2, pnr := pointNorms(pts)
		res, err := KMeans(rows, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		eng := parallel.New(1)
		want := SimplifiedSilhouetteWith(eng, rows, res.Centers, res.Assign)
		got := simplifiedSilhouetteDense(eng, pts, pn2, pnr, res.Centers, res.Assign)
		return want == got
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
