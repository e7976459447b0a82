package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"simprof/internal/history"
	"simprof/internal/obs"
	"simprof/internal/obs/reqtrace"
	"simprof/internal/obs/traceevent"
)

// tracedConfig is the test servers' tracing setup: small budget,
// deterministic seed, bounds that put the test workload's latencies in
// sampled buckets.
func tracedConfig() *reqtrace.Config {
	return &reqtrace.Config{Budget: 32, Ring: 16, Rebalance: 8, Seed: 41}
}

func getTraces(t testing.TB, url string) (int, TracesResponse) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode, tr
}

// TestTracesEndpoint: traffic lands in strata, the retained listing is
// filterable, and errors are force-kept.
func TestTracesEndpoint(t *testing.T) {
	leakCheck(t)
	withObs(t)
	_, ts := newTestServer(t, Config{Trace: tracedConfig()})
	data := encodedTrace(t, 120, 3)

	for i := 0; i < 5; i++ {
		resp, body := postTrace(t, ts.URL+"/v1/profile?n=20&seed=4", data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("profile status %d, body %s", resp.StatusCode, body)
		}
	}
	// A client error: 4xx strata are sampled, not forced.
	resp, _ := postTrace(t, ts.URL+"/v1/profile?n=-1", data)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: status %d", resp.StatusCode)
	}

	status, tr := getTraces(t, ts.URL+"/v1/traces")
	if status != http.StatusOK {
		t.Fatalf("traces status %d", status)
	}
	if tr.Status.Budget != 32 || tr.Status.Completed < 6 {
		t.Fatalf("engine status %+v", tr.Status)
	}
	if tr.Status.Retained == 0 || len(tr.Traces) == 0 {
		t.Fatal("nothing retained after traffic")
	}
	if len(tr.Status.Strata) < 2 {
		t.Fatalf("strata %+v, want at least the 2xx and 4xx profile strata", tr.Status.Strata)
	}
	for _, row := range tr.Status.Strata {
		if row.Route != "/v1/profile" {
			t.Fatalf("unexpected route %q in strata", row.Route)
		}
	}

	// Filters narrow the listing.
	status, tr = getTraces(t, ts.URL+"/v1/traces?status_class=4xx")
	if status != http.StatusOK {
		t.Fatalf("filtered status %d", status)
	}
	if len(tr.Traces) != 1 || tr.Traces[0].Status != http.StatusBadRequest {
		t.Fatalf("4xx filter returned %+v", tr.Traces)
	}
	// The recent ring answers too.
	if _, tr = getTraces(t, ts.URL+"/v1/traces?set=recent&limit=3"); len(tr.Traces) != 3 {
		t.Fatalf("recent limit=3 returned %d traces", len(tr.Traces))
	}

	// Bad query knobs are typed refusals.
	for _, q := range []string{"?set=bogus", "?limit=-1", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/v1/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestTracesDisabled: without Trace config both endpoints refuse with
// the typed bad_input envelope.
func TestTracesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/traces", "/v1/traces/some-id"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Class != "bad_input" {
			t.Fatalf("%s: status %d class %q, want 400 bad_input", path, resp.StatusCode, e.Class)
		}
	}
}

// TestTraceExportEndpoint: a retained trace exports as a valid Chrome
// trace-event file whose lanes carry the request's span tree.
func TestTraceExportEndpoint(t *testing.T) {
	leakCheck(t)
	withObs(t)
	_, ts := newTestServer(t, Config{Trace: tracedConfig()})
	data := encodedTrace(t, 120, 3)

	resp, body := postTraceWithID(t, ts.URL+"/v1/profile?n=20&seed=4", data, "trace-export-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d, body %s", resp.StatusCode, body)
	}

	resp2, err := http.Get(ts.URL + "/v1/traces/trace-export-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp2.StatusCode)
	}
	f, err := traceevent.Decode(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	var sawRoot bool
	for _, ev := range f.TraceEvents {
		if ev.Name == "request trace-export-1" {
			sawRoot = true
		}
	}
	if !sawRoot {
		t.Fatalf("export has no request root span; events: %d", len(f.TraceEvents))
	}

	// Unknown IDs refuse.
	resp3, err := http.Get(ts.URL + "/v1/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown id: status %d, want 400", resp3.StatusCode)
	}
}

// postTraceWithID posts an upload with an explicit X-Request-Id.
func postTraceWithID(t testing.TB, url string, body []byte, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// readTraceStore reads the persisted trace records back through the
// history package.
func readTraceStore(t testing.TB, path string) []*history.Record {
	t.Helper()
	recs, skipped, err := history.OpenDurable(path).Records()
	if err != nil || skipped != 0 {
		t.Fatalf("reading trace store: %v (skipped %d)", err, skipped)
	}
	return recs
}

// TestTracingOnOffDeterminism: the profile pipeline's output is
// bit-identical with tracing on and off — retention observes, never
// alters. Timing fields and store bookkeeping are the only permitted
// differences.
func TestTracingOnOffDeterminism(t *testing.T) {
	withObs(t)
	data := encodedTrace(t, 150, 9)

	run := func(traced bool) map[string]any {
		cfg := Config{HistoryPath: filepath.Join(t.TempDir(), "h.jsonl")}
		if traced {
			cfg.Trace = tracedConfig()
			cfg.TraceStorePath = filepath.Join(t.TempDir(), "t.jsonl")
		}
		_, ts := newTestServer(t, cfg)
		resp, body := postTrace(t, ts.URL+"/v1/profile?n=25&seed=11", data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traced=%v status %d body %s", traced, resp.StatusCode, body)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "elapsed_ms")
		return m
	}

	on, off := run(true), run(false)
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("pipeline output differs with tracing on:\non:  %v\noff: %v", on, off)
	}
}

// TestTracedProfilePersistsSpans: with a trace store configured, a slow
// or failing request's record lands durably with its span tree.
func TestTracedProfilePersistsSpans(t *testing.T) {
	withObs(t)
	storePath := filepath.Join(t.TempDir(), "traces.jsonl")
	// Tail bound of 0.001ms: every request is tail latency, so every
	// trace is force-kept and persisted.
	srv, ts := newTestServer(t, Config{
		Trace:          &reqtrace.Config{Budget: 8, BucketBoundsMS: []float64{0.001}, Seed: 5},
		TraceStorePath: storePath,
	})
	data := encodedTrace(t, 120, 3)
	resp, body := postTraceWithID(t, ts.URL+"/v1/profile?n=20&seed=4", data, "durable-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d, body %s", resp.StatusCode, body)
	}
	srv.Close() // drains the persist queue

	recs := readTraceStore(t, storePath)
	if len(recs) == 0 {
		t.Fatal("no trace records persisted")
	}
	var found bool
	for _, rec := range recs {
		if rec.Manifest == nil || rec.Manifest.Request == nil {
			t.Fatalf("record %d has no request section", rec.Seq)
		}
		if rec.Manifest.Request.ID == "durable-1" {
			found = true
			if rec.Manifest.Spans == nil {
				t.Fatal("durable trace has no span tree")
			}
			if got := rec.Manifest.Spans.Name; got != "request durable-1" {
				t.Fatalf("span root %q", got)
			}
			if !rec.Manifest.Request.Forced {
				t.Fatal("tail-latency trace not marked forced")
			}
		}
	}
	if !found {
		t.Fatalf("durable-1 not in persisted records (%d records)", len(recs))
	}
}

// persistedTraceTrees runs the given profile uploads (request ID →
// upload) concurrently against a traced server that force-keeps and
// persists every trace, and returns each request's span tree.
func persistedTraceTrees(t *testing.T, uploads map[string][]byte, hook func(srv *Server)) map[string]*obs.Span {
	t.Helper()
	storePath := filepath.Join(t.TempDir(), "traces.jsonl")
	// Tail bound of 0.001ms: every request is tail latency, so every
	// trace is force-kept and persisted.
	srv, ts := newTestServer(t, Config{
		Trace:          &reqtrace.Config{Budget: 8, BucketBoundsMS: []float64{0.001}, Seed: 5},
		TraceStorePath: storePath,
	})
	if hook != nil {
		hook(srv)
	}
	var wg sync.WaitGroup
	for id, data := range uploads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postTraceWithID(t, ts.URL+"/v1/profile?n=20&seed=4", data, id)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, body %s", id, resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	srv.Close() // drains the persist queue

	trees := map[string]*obs.Span{}
	for _, rec := range readTraceStore(t, storePath) {
		trees[rec.Manifest.Request.ID] = rec.Manifest.Spans
	}
	for id := range uploads {
		if trees[id] == nil || trees[id].Name != "request "+id {
			t.Fatalf("%s: persisted span tree %+v, want root %q", id, trees[id], "request "+id)
		}
	}
	return trees
}

// findSpans returns every span named name in the tree.
func findSpans(root *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	root.Walk(func(s *obs.Span, _ int) {
		if s.Name == name {
			out = append(out, s)
		}
	})
	return out
}

// TestTracedMissSpanTree: the pipeline runs on the flight goroutine,
// yet its spans land in the leading request's tree — phase formation
// with its clustering stage beneath it, and the stratified draw.
func TestTracedMissSpanTree(t *testing.T) {
	withObs(t)
	trees := persistedTraceTrees(t, map[string][]byte{"miss-1": encodedTrace(t, 120, 3)}, nil)
	root := trees["miss-1"]
	forms := findSpans(root, "phase.form")
	if len(forms) != 1 {
		t.Fatalf("request tree holds %d phase.form spans, want 1", len(forms))
	}
	if len(findSpans(forms[0], "phase.cluster")) != 1 {
		t.Fatal("phase.cluster is not beneath phase.form")
	}
	if len(findSpans(root, "sampling.simprof")) != 1 {
		t.Fatal("request tree has no sampling.simprof span")
	}
}

// TestConcurrentTracedMissesOwnTheirSpans: two traced misses whose
// pipelines overlap in time each hold exactly their own pipeline
// spans — no span leaks into the other request's tree.
func TestConcurrentTracedMissesOwnTheirSpans(t *testing.T) {
	withObs(t)
	uploads := map[string][]byte{
		"concurrent-a": encodedTrace(t, 120, 3),
		"concurrent-b": encodedTrace(t, 140, 4),
	}
	// Hold each flight at the pipeline's door until both are there, so
	// the two pipelines run at the same time.
	var arrived sync.WaitGroup
	arrived.Add(len(uploads))
	trees := persistedTraceTrees(t, uploads, func(srv *Server) {
		srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
			arrived.Done()
			arrived.Wait()
			return srv.profile(ctx, data, n, seed)
		}
	})
	for id, root := range trees {
		for _, name := range []string{"batch.exec", "phase.form", "phase.cluster", "sampling.simprof"} {
			if got := len(findSpans(root, name)); got != 1 {
				t.Fatalf("%s: %d %s spans, want exactly its own 1", id, got, name)
			}
		}
	}
}
