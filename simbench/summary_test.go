package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"simprof/internal/history"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	got := TailOf(xs)
	if got.Value != 90 || got.Pct != 90 || got.N != 100 {
		t.Fatalf("TailOf(1..100) = %+v, want p90 = 90 over 100 samples", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailMinBeyond)
	}
	if got := TailOf(xs[:11]); got.N != 11 || got.Value != 90 {
		t.Fatalf("TailOf(11 samples) = %+v, want the minimum with 10 beyond", got)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := TailOf(big); got.Pct != 99 || got.Value != 990 || got.N != 1000 {
		t.Fatalf("TailOf(1..1000) = %+v, want p99 = 990", got)
	}
	if got := TailOf([]float64{3, 1, 2}); got.Pct != 0 || got.Value != 3 || got.N != 3 {
		t.Fatalf("TailOf(3 samples) = %+v, want the maximum, no percentile", got)
	}
}

func TestMedianQuantile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := Median(xs); m != 5.5 {
		t.Fatalf("Median = %v", m)
	}
	if q := Quantile(xs, 0.99); math.Abs(q-9.91) > 1e-9 {
		t.Fatalf("Quantile(0.99) = %v", q)
	}
}

func TestUploadsDeterministicFromSeed(t *testing.T) {
	a, err := makeUploads(200, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeUploads(200, 11, 3)
	c, _ := makeUploads(200, 12, 3)
	for i := range a {
		if sha256.Sum256(a[i].Data) != sha256.Sum256(b[i].Data) {
			t.Fatalf("upload %d: same seed, different bytes", i)
		}
		if sha256.Sum256(a[i].Data) == sha256.Sum256(c[i].Data) {
			t.Fatalf("upload %d: different seeds, same bytes", i)
		}
		if a[i].Units != 200 || a[i].Oracle <= 0 {
			t.Fatalf("upload %d: units %d oracle %v", i, a[i].Units, a[i].Oracle)
		}
	}
	if sha256.Sum256(a[0].Data) == sha256.Sum256(a[1].Data) {
		t.Fatal("uploads of one seed repeat")
	}
}

// The pre-aged history store is built inside set-up, so set-up time
// counts it, and the server starts on it: the store holds the pre-aged
// records and the service's next append follows them.
func TestPreAgedHistoryBuiltInSetup(t *testing.T) {
	cfg := runCfg{seed: 3, dir: t.TempDir()}
	steps := []Step{{Rate: 5, Dur: time.Second}}
	var hist string
	st, setupS, err := timeSetup(func(r int) (serveState, error) {
		st, err := buildServe(cfg, serveMiss, steps, r, false)
		if err == nil {
			hist = st.svc.hist
			if recs, _, err := history.Open(hist).Records(); err != nil || len(recs) != preAgedRecords {
				t.Errorf("set-up %d: store holds %d records (%v), want %d", r, len(recs), err, preAgedRecords)
			}
		}
		return st, err
	}, func(s serveState) { s.svc.stop() })
	if err != nil {
		t.Fatal(err)
	}
	defer st.svc.stop()
	if setupS <= 0 {
		t.Fatalf("setup_s = %v", setupS)
	}
	if filepath.Dir(hist) != filepath.Join(cfg.dir, fmt.Sprintf("setup%d-false", setupReps-1)) {
		t.Fatalf("the kept set-up is %s, want the last of %d", hist, setupReps)
	}
	p := play(serveState{svc: st.svc, sched: st.sched[:1], ops: st.ops[:1], uploads: st.uploads}, steps, nil)
	if p.errs[0] != nil || p.replies[0].Status != 200 {
		t.Fatalf("profile request: %v status %d", p.errs[0], p.replies[0].Status)
	}
	if !bytes.Contains(p.replies[0].Body, []byte(`"seq":1001`)) {
		t.Fatalf("first profile does not follow the pre-aged records: %s", p.replies[0].Body)
	}
	if p.records != preAgedRecords+1 {
		t.Fatalf("store holds %d records after one profile, want %d", p.records, preAgedRecords+1)
	}
}

func TestSetupTimeIsMedianOfRepetitions(t *testing.T) {
	var torn []int
	n := 0
	v, s, err := timeSetup(func(r int) (int, error) {
		n++
		time.Sleep(time.Duration(r+1) * 10 * time.Millisecond)
		return r, nil
	}, func(r int) { torn = append(torn, r) })
	if err != nil || n != setupReps || v != setupReps-1 || len(torn) != setupReps-1 {
		t.Fatalf("v=%d n=%d torn=%v err=%v", v, n, torn, err)
	}
	if mid := float64(setupReps/2+1) * 0.01; s < mid || s > 10*mid {
		t.Fatalf("median set-up = %vs, want about the middle repetition's %vs", s, mid)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20 * ms, End: 30 * ms},
	}
	self := SelfTimes(spans)
	want := map[string]float64{"root": 50, "a": 20, "b": 30, "c": 10}
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-9 {
			t.Fatalf("self[%s] = %v, want %v (all %v)", k, self[k], v, self)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	host := Fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a"}
	rec := func(h Fingerprint, v float64) Record {
		return Record{Host: h, Workload: "w", Result: Result{Metrics: map[string]Metric{"lat_p50_ms": {Value: v}}}}
	}
	bounds := []Bound{{Name: "lat_p50_ms", Better: "lower", Bound: 0.1}}
	other := host
	other.Commit = "b"
	cmp, err := Compare([]Record{rec(host, 10)}, []Record{rec(other, 12)}, bounds)
	if err != nil || len(cmp) != 1 || !cmp[0].Regressed {
		t.Fatalf("same host, other commit: %+v, %v; want a regression", cmp, err)
	}
	for _, mod := range []func(*Fingerprint){
		func(f *Fingerprint) { f.CPU = "y" },
		func(f *Fingerprint) { f.NProc = 4 },
		func(f *Fingerprint) { f.GOMAXPROCS = 1 },
		func(f *Fingerprint) { f.GoVersion = "go1.25.0" },
	} {
		h := host
		mod(&h)
		_, err := Compare([]Record{rec(host, 10)}, []Record{rec(h, 10)}, bounds)
		var mismatch errHostMismatch
		if !errors.As(err, &mismatch) {
			t.Fatalf("fingerprint %+v vs %+v compared: %v", host, h, err)
		}
	}
}
