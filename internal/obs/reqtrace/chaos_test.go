package reqtrace

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"simprof/internal/history"
	"simprof/internal/obs"
)

// leakCheck fails the test if it ends with more goroutines than it
// started with (after a settling poll) — the engine's persister must
// die with Stop.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	})
}

// TestChaosFailureStormForcedKeep: a burst of 5xx/timeouts inside a sea
// of concurrent OK traffic — every error trace that arrived after the
// budget stopped fighting back must be in the retained set, and the
// error strata must report their forced population.
func TestChaosFailureStormForcedKeep(t *testing.T) {
	leakCheck(t)
	e := New(Config{Budget: 200, Rebalance: 32, Seed: 13})
	defer e.Stop()

	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := fmt.Sprintf("w%d-r%d", w, i)
				status, class, lat := 200, "ok", 5*time.Millisecond
				if i%50 < 5 { // injected failure storm: 10% errors in bursts
					status, class, lat = 500, "internal", 20*time.Millisecond
				}
				finish(e, id, "/v1/profile", status, class, lat)
			}
		}(w)
	}
	wg.Wait()

	s := e.Status()
	if s.Completed != workers*perW {
		t.Fatalf("completed %d, want %d", s.Completed, workers*perW)
	}
	if s.Retained > 200 {
		t.Fatalf("retained %d > budget under concurrent storm", s.Retained)
	}
	var forcedSeen, forcedKept int64
	for _, row := range s.Strata {
		if row.StatusClass == "5xx" {
			forcedSeen += row.ForcedSeen
			forcedKept += int64(row.ForcedKept)
		}
	}
	wantErrors := int64(workers * perW / 10)
	if forcedSeen != wantErrors {
		t.Fatalf("error strata saw %d, want %d", forcedSeen, wantErrors)
	}
	// The error volume (400) exceeds the budget (200): the engine keeps
	// as many of the newest error traces as the budget allows — never
	// fewer than budget minus what the sampled strata still hold — and
	// reports the honest forced π < 1.
	if forcedKept == 0 || forcedKept > 200 {
		t.Fatalf("forced kept %d, want in (0, 200]", forcedKept)
	}
	if forcedSeen > forcedKept {
		for _, row := range s.Strata {
			if row.StatusClass == "5xx" && row.ForcedInclusionP >= 1 {
				t.Fatalf("forced π must drop below 1 when forced traces are evicted: %+v", row)
			}
		}
	}
}

// TestChaosOverloadStormBoundedMemory: a 429 storm (every trace
// force-kept as overload class) must not grow the retained set past
// the budget no matter how long it runs — bounded memory is the
// contract that lets tracing stay on during the incident.
func TestChaosOverloadStormBoundedMemory(t *testing.T) {
	leakCheck(t)
	const budget = 64
	e := New(Config{Budget: budget, Ring: 16, Rebalance: 16, Seed: 17})
	defer e.Stop()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				finish(e, fmt.Sprintf("w%d-r%d", w, i), "/v1/profile", 429, "overload", time.Millisecond)
			}
		}(w)
	}
	wg.Wait()

	s := e.Status()
	if s.Retained > budget {
		t.Fatalf("429 storm grew retained set to %d > budget %d", s.Retained, budget)
	}
	if s.Retained != budget {
		t.Fatalf("retained %d, want full budget of forced traces", s.Retained)
	}
	if s.Evicted == 0 {
		t.Fatal("storm must have evicted forced traces to stay bounded")
	}
	// The kept forced traces are the newest (FIFO eviction of the
	// oldest), and their π reflects the eviction honestly.
	for _, row := range s.Strata {
		if row.ForcedSeen > 0 && row.ForcedInclusionP >= 1 {
			t.Fatalf("forced π = %v after evictions, want < 1", row.ForcedInclusionP)
		}
	}
}

// TestChaosConcurrentReadsDuringStorm: Status/List/Get race with
// completions (run under -race in chaos-smoke).
func TestChaosConcurrentReadsDuringStorm(t *testing.T) {
	leakCheck(t)
	e := New(Config{Budget: 50, Rebalance: 8, Seed: 19})
	defer e.Stop()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.Status()
					e.List(ListOptions{Recent: true, Limit: 10})
					e.Get("w0-r10")
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 1000; i++ {
				status, class := 200, "ok"
				if i%7 == 0 {
					status, class = 503, "unavailable"
				}
				finish(e, fmt.Sprintf("w%d-r%d", w, i), "/v1/profile", status, class, time.Duration(i%30)*time.Millisecond)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if s := e.Status(); s.Completed != 4000 || s.Retained > 50 {
		t.Fatalf("after concurrent storm: %+v", s)
	}
}

// TestPersistRoundTrip: admitted traces land in the durable history
// store as manifest-carrying records, recoverable by the existing
// tooling, with the retention bookkeeping in the request section.
func TestPersistRoundTrip(t *testing.T) {
	leakCheck(t)
	obs.Enable()
	defer obs.Disable()

	store := history.OpenDurable(filepath.Join(t.TempDir(), "traces.jsonl"))
	clk := newSteppedClock()
	e := New(Config{Budget: 100, Now: clk.now, Seed: 23, Store: store})

	ctx, a := e.Start(context.Background(), "req-abc", "/v1/profile", "tenant-1")
	sp := obs.StartSpan(ctx, "phase.form")
	sp.End()
	e.Finish(a, 500, "internal", 64, 42*time.Millisecond)
	e.Stop() // drains the persist queue

	recs, skipped, err := store.Records()
	if err != nil || skipped != 0 {
		t.Fatalf("Records: %v (skipped %d)", err, skipped)
	}
	if len(recs) != 1 {
		t.Fatalf("persisted %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Tool != "simprofd reqtrace" {
		t.Fatalf("tool = %q", rec.Tool)
	}
	req := rec.Manifest.Request
	if req == nil {
		t.Fatal("manifest has no request section")
	}
	if req.ID != "req-abc" || req.Route != "/v1/profile" || req.Tenant != "tenant-1" ||
		req.Status != 500 || req.Class != "internal" || !req.Forced {
		t.Fatalf("request section: %+v", req)
	}
	if req.Latency != 42 {
		t.Fatalf("latency = %v, want 42ms", req.Latency)
	}
	if req.Stratum != "/v1/profile|5xx|25-100ms" {
		t.Fatalf("stratum = %q", req.Stratum)
	}
	if req.InclusionP != 1 || req.Weight != 1 {
		t.Fatalf("π=%v weight=%v, want 1/1 for a forced keep", req.InclusionP, req.Weight)
	}
	spans := rec.Manifest.Spans
	if spans == nil || spans.Name != "request req-abc" {
		t.Fatalf("span tree root: %+v", spans)
	}
	if len(spans.Children) != 1 || spans.Children[0].Name != "phase.form" {
		t.Fatalf("span children: %+v", spans.Children)
	}
}

// TestPersistQueueOverflowCounted: a wedged store must not block
// retention; overflow drops are counted.
func TestPersistQueueOverflowCounted(t *testing.T) {
	// A store pointed into a nonexistent directory: Append fails fast,
	// but the queue is tiny so drops happen under a burst regardless.
	store := history.OpenDurable(filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl"))
	clk := newSteppedClock()
	e := New(Config{Budget: 5000, Now: clk.now, Seed: 29, Store: store, PersistQueue: 1})
	for i := 0; i < 500; i++ {
		finish(e, fmt.Sprintf("r%d", i), "/v1/profile", 500, "internal", time.Millisecond)
	}
	e.Stop()
	if s := e.Status(); s.PersistDropped == 0 {
		t.Fatalf("expected persist drops with a 1-deep queue, status %+v", s)
	}
}
