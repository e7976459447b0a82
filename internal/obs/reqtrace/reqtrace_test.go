package reqtrace

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"simprof/internal/stats"
)

// steppedClock is the deterministic time source every engine test uses.
type steppedClock struct{ t time.Time }

func newSteppedClock() *steppedClock {
	return &steppedClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *steppedClock) now() time.Time {
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

// finish drives one trace through the engine without HTTP machinery.
func finish(e *Engine, id, route string, status int, class string, latency time.Duration) {
	_, a := e.Start(context.Background(), id, route, "default")
	e.Finish(a, status, class, 0, latency)
}

func TestNilEngineNoOps(t *testing.T) {
	var e *Engine
	ctx := context.Background()
	got, a := e.Start(ctx, "id", "/v1/profile", "default")
	if a != nil || got != ctx {
		t.Fatalf("nil engine Start = (%v, %+v), want (ctx unchanged, nil)", got, a)
	}
	e.Finish(a, 200, "ok", 0, time.Millisecond)
	e.Abort(a)
	e.Stop()
	if s := e.Status(); s.Budget != 0 || s.Completed != 0 {
		t.Fatalf("nil engine Status = %+v", s)
	}
	if l := e.List(ListOptions{}); l != nil {
		t.Fatalf("nil engine List = %v", l)
	}
	if g := e.Get("id"); g != nil {
		t.Fatalf("nil engine Get = %v", g)
	}
}

func TestForcedKeepRules(t *testing.T) {
	clk := newSteppedClock()
	e := New(Config{Budget: 100, Now: clk.now, Seed: 1})
	defer e.Stop()

	finish(e, "ok", "/v1/profile", 200, "ok", 10*time.Millisecond)
	finish(e, "err500", "/v1/profile", 500, "internal", 10*time.Millisecond)
	finish(e, "timeout", "/v1/profile", 504, "timeout", 10*time.Millisecond)
	finish(e, "overload", "/v1/profile", 429, "overload", time.Millisecond)
	finish(e, "tail", "/v1/profile", 200, "ok", 800*time.Millisecond)
	finish(e, "badinput", "/v1/profile", 400, "bad_input", time.Millisecond)

	s := e.Status()
	if s.ForcedRetained != 4 {
		t.Fatalf("forced retained = %d, want 4 (500, timeout, overload, tail): %+v", s.ForcedRetained, s.Strata)
	}
	for _, id := range []string{"err500", "timeout", "overload", "tail"} {
		tr := e.Get(id)
		if tr == nil || !tr.Forced {
			t.Fatalf("trace %s not force-kept: %+v", id, tr)
		}
	}
	if tr := e.Get("badinput"); tr != nil && tr.Forced {
		t.Fatal("4xx bad_input must not be force-kept")
	}
}

func TestStratification(t *testing.T) {
	clk := newSteppedClock()
	e := New(Config{Budget: 1000, Now: clk.now, Seed: 2})
	defer e.Stop()

	finish(e, "a", "/v1/profile", 200, "ok", 2*time.Millisecond)   // <5ms
	finish(e, "b", "/v1/profile", 200, "ok", 10*time.Millisecond)  // 5-25ms
	finish(e, "c", "/v1/profile", 200, "ok", 50*time.Millisecond)  // 25-100ms
	finish(e, "d", "/v1/profile", 200, "ok", 200*time.Millisecond) // 100-500ms
	finish(e, "e", "/v1/history", 200, "ok", 2*time.Millisecond)
	finish(e, "f", "/v1/profile", 400, "bad_input", 2*time.Millisecond)

	s := e.Status()
	if len(s.Strata) != 6 {
		t.Fatalf("strata = %d, want 6:\n%+v", len(s.Strata), s.Strata)
	}
	want := map[string]bool{
		"/v1/profile|2xx|<5ms":      true,
		"/v1/profile|2xx|5-25ms":    true,
		"/v1/profile|2xx|25-100ms":  true,
		"/v1/profile|2xx|100-500ms": true,
		"/v1/history|2xx|<5ms":      true,
		"/v1/profile|4xx|<5ms":      true,
	}
	for _, row := range s.Strata {
		k := row.Route + "|" + row.StatusClass + "|" + row.LatencyBucket
		if !want[k] {
			t.Fatalf("unexpected stratum %q", k)
		}
		if row.Seen != 1 || row.Kept+row.ForcedKept != 1 {
			t.Fatalf("stratum %q: seen=%d kept=%d forced=%d, want 1/1", k, row.Seen, row.Kept, row.ForcedKept)
		}
		if row.InclusionP != 1 && row.ForcedInclusionP != 1 {
			t.Fatalf("stratum %q: inclusion probabilities %v/%v, want 1", k, row.InclusionP, row.ForcedInclusionP)
		}
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	clk := newSteppedClock()
	const budget = 50
	e := New(Config{Budget: budget, Rebalance: 16, Now: clk.now, Seed: 3})
	defer e.Stop()

	rng := stats.NewRNG(99)
	for i := 0; i < 5000; i++ {
		lat := time.Duration(1+rng.IntN(400)) * time.Millisecond
		status, class := 200, "ok"
		if i%17 == 0 {
			status, class = 500, "internal" // steady forced stream
		}
		finish(e, fmt.Sprintf("r%d", i), "/v1/profile", status, class, lat)
		if s := e.Status(); s.Retained > budget {
			t.Fatalf("after %d completions: retained %d > budget %d", i+1, s.Retained, budget)
		}
	}
	s := e.Status()
	if s.Retained == 0 || s.Completed != 5000 {
		t.Fatalf("final status: %+v", s)
	}
	if s.BudgetUtilization > 1 {
		t.Fatalf("budget utilization %v > 1", s.BudgetUtilization)
	}
}

func TestInclusionProbabilitiesConsistent(t *testing.T) {
	clk := newSteppedClock()
	e := New(Config{Budget: 64, Rebalance: 32, Now: clk.now, Seed: 4})
	defer e.Stop()

	rng := stats.NewRNG(7)
	for i := 0; i < 2000; i++ {
		lat := time.Duration(1+rng.IntN(90)) * time.Millisecond
		finish(e, fmt.Sprintf("r%d", i), "/v1/profile", 200, "ok", lat)
	}
	s := e.Status()
	for _, row := range s.Strata {
		sampledSeen := row.Seen - row.ForcedSeen
		if sampledSeen > 0 {
			wantPi := float64(row.Kept) / float64(sampledSeen)
			if math.Abs(row.InclusionP-wantPi) > 1e-12 {
				t.Fatalf("stratum %s/%s/%s: π=%v, want kept/seen=%v",
					row.Route, row.StatusClass, row.LatencyBucket, row.InclusionP, wantPi)
			}
			if row.InclusionP <= 0 || row.InclusionP > 1 {
				t.Fatalf("π out of range: %v", row.InclusionP)
			}
		}
	}
	// Weights in listings are 1/π of the trace's stratum.
	for _, sum := range e.List(ListOptions{}) {
		if sum.Weight < 1 {
			t.Fatalf("trace %s weight %v < 1", sum.ID, sum.Weight)
		}
	}
}

func TestDeterministicRetentionUnderSteppedClock(t *testing.T) {
	run := func() []Summary {
		clk := newSteppedClock()
		e := New(Config{Budget: 40, Rebalance: 16, Now: clk.now, Seed: 42})
		defer e.Stop()
		rng := stats.NewRNG(5)
		for i := 0; i < 3000; i++ {
			lat := time.Duration(1+rng.IntN(600)) * time.Millisecond
			status, class := 200, "ok"
			switch i % 31 {
			case 7:
				status, class = 500, "internal"
			case 13:
				status, class = 429, "overload"
			}
			finish(e, fmt.Sprintf("r%d", i), "/v1/profile", status, class, lat)
		}
		return e.List(ListOptions{})
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs retained %d vs %d traces", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retention diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestListFilters(t *testing.T) {
	clk := newSteppedClock()
	e := New(Config{Budget: 100, Now: clk.now, Seed: 6})
	defer e.Stop()

	finish(e, "a", "/v1/profile", 200, "ok", 2*time.Millisecond)
	finish(e, "b", "/v1/profile", 500, "internal", 2*time.Millisecond)
	finish(e, "c", "/v1/history", 200, "ok", 50*time.Millisecond)

	if l := e.List(ListOptions{Route: "/v1/history"}); len(l) != 1 || l[0].ID != "c" {
		t.Fatalf("route filter: %+v", l)
	}
	if l := e.List(ListOptions{StatusClass: "5xx"}); len(l) != 1 || l[0].ID != "b" {
		t.Fatalf("status filter: %+v", l)
	}
	if l := e.List(ListOptions{LatencyBucket: "25-100ms"}); len(l) != 1 || l[0].ID != "c" {
		t.Fatalf("bucket filter: %+v", l)
	}
	if l := e.List(ListOptions{Limit: 2}); len(l) != 2 || l[0].ID != "b" || l[1].ID != "c" {
		t.Fatalf("limit keeps newest: %+v", l)
	}
	if l := e.List(ListOptions{Recent: true}); len(l) != 3 {
		t.Fatalf("recent ring: %+v", l)
	}
}

func TestRecentRingBounded(t *testing.T) {
	clk := newSteppedClock()
	e := New(Config{Budget: 4, Ring: 8, Now: clk.now, Seed: 7})
	defer e.Stop()
	for i := 0; i < 100; i++ {
		finish(e, fmt.Sprintf("r%d", i), "/v1/profile", 200, "ok", time.Millisecond)
	}
	l := e.List(ListOptions{Recent: true})
	if len(l) != 8 {
		t.Fatalf("ring holds %d, want 8", len(l))
	}
	if l[len(l)-1].ID != "r99" || l[0].ID != "r92" {
		t.Fatalf("ring window wrong: first=%s last=%s", l[0].ID, l[len(l)-1].ID)
	}
}

// TestWeightedEstimateAgreesWithHistogram is the acceptance-criteria
// integration test: a lognormal latency population flows through a
// small budget, and the weighted p99 reconstructed from the retained
// sample must agree with the cumulative histogram's p99 within the
// reported uncertainty (the estimate's SE plus the histogram's own
// bucket resolution at p99 — the histogram answer is interpolated, so
// exact agreement below its resolution is not meaningful).
func TestWeightedEstimateAgreesWithHistogram(t *testing.T) {
	clk := newSteppedClock()
	const n = 20000
	e := New(Config{
		Budget: 1000, Rebalance: 64, Seed: 11, Now: clk.now,
		// Tail cut at 250ms: the p99 region of this population (~350ms)
		// is force-kept, exactly the operator-relevant regime.
		BucketBoundsMS: []float64{5, 25, 100, 250},
	})
	defer e.Stop()

	rng := stats.NewRNG(1234)
	var exact []float64
	for i := 0; i < n; i++ {
		ms := stats.LogNormal(rng, 80, 0.9)
		exact = append(exact, ms)
		finish(e, fmt.Sprintf("r%d", i), "/v1/profile", 200, "ok", time.Duration(ms*float64(time.Millisecond)))
	}

	s := e.Status()
	if s.Retained > 1000 {
		t.Fatalf("retained %d > budget", s.Retained)
	}
	est := s.Estimate
	if est == nil {
		t.Fatal("no estimate")
	}
	if est.N != n {
		t.Fatalf("population N = %d, want %d", est.N, n)
	}

	var p99 QuantileEstimate
	for _, q := range est.Quantiles {
		if q.Q == 0.99 {
			p99 = q
		}
	}
	if p99.ValueMS == 0 || p99.SEMS <= 0 {
		t.Fatalf("p99 estimate missing or without SE: %+v", est.Quantiles)
	}

	tol := p99.SEMS + est.HistP99ResolutionMS
	if diff := math.Abs(p99.ValueMS - est.HistP99MS); diff > tol {
		t.Fatalf("weighted p99 %.2fms vs histogram p99 %.2fms: |Δ|=%.2f > SE+resolution=%.2f",
			p99.ValueMS, est.HistP99MS, diff, tol)
	}

	// And against the exact order statistic, within the same tolerance:
	// the histogram could in principle be wrong the same way the
	// estimate is.
	sort.Float64s(exact)
	exactP99 := exact[int(0.99*float64(n))]
	if diff := math.Abs(p99.ValueMS - exactP99); diff > tol {
		t.Fatalf("weighted p99 %.2fms vs exact %.2fms: |Δ|=%.2f > %.2f", p99.ValueMS, exactP99, diff, tol)
	}

	// The weighted mean should land near the true mean too (a few SEs;
	// the SE is an estimate itself, so give it 4).
	var sum float64
	for _, v := range exact {
		sum += v
	}
	trueMean := sum / float64(n)
	if diff := math.Abs(est.MeanMS - trueMean); diff > 4*est.MeanSEMS+1 {
		t.Fatalf("weighted mean %.2f vs true %.2f: |Δ|=%.2f > 4·SE=%.2f",
			est.MeanMS, trueMean, diff, 4*est.MeanSEMS)
	}
}
