package tracebin

import (
	"bytes"
	"testing"
	"time"

	"simprof/internal/phase"
	"simprof/internal/sampling"
	"simprof/internal/synth"
	"simprof/internal/trace"
)

// bench100kSpec is the 100k-unit workload behind the decode and
// end-to-end benchmarks: five snapshots per unit at depth 5 over 256
// methods — a long production run at the observation density a 1-CPU
// baseline runner can profile interactively.
func bench100kSpec() synth.TraceSpec {
	spec := synth.DefaultTrace(100_000, 1234)
	spec.Depth = 5
	spec.Snapshots = 5
	return spec
}

var bench100k struct {
	bin []byte
	gob []byte
}

// bench100kData generates and encodes the 100k-unit trace once per
// test binary (the generation itself is not part of any measurement).
func bench100kData(b *testing.B) ([]byte, []byte) {
	b.Helper()
	if bench100k.bin == nil {
		tr, err := bench100kSpec().Generate()
		if err != nil {
			b.Fatal(err)
		}
		if bench100k.bin, err = Marshal(tr); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.EncodeGob(&buf); err != nil {
			b.Fatal(err)
		}
		bench100k.gob = buf.Bytes()
	}
	return bench100k.bin, bench100k.gob
}

// BenchmarkDecodeBin measures the columnar decode of the 100k-unit
// trace: header + CRC + column validation + zero-copy adoption.
func BenchmarkDecodeBin(b *testing.B) {
	bin, _ := bench100kData(b)
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeGob is the legacy path on identical data: gob decode,
// validation, arena compaction — the baseline DecodeBin replaces.
func BenchmarkDecodeGob(b *testing.B) {
	_, gobData := bench100kData(b)
	b.SetBytes(int64(len(gobData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeBytes(gobData); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd100k is the tentpole target: decode → phase
// formation (frequency matrix adopted from the file, parallel
// projection) → Neyman allocation → CPI estimate, on 100k units,
// in under 100ms on the baseline runner. The Options mirror an
// interactive profile of a long run: a focused feature space and a
// small k sweep — the pipeline a `simprof profile` of a pre-recorded
// trace executes.
func BenchmarkEndToEnd100k(b *testing.B) {
	bin, _ := bench100kData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Decode(bin)
		if err != nil {
			b.Fatal(err)
		}
		ph, err := phase.Form(tr, phase.Options{
			TopK:      6,
			MaxPhases: 4,
			Restarts:  1,
			MaxIter:   25,
			Seed:      7,
		})
		if err != nil {
			b.Fatal(err)
		}
		sp, err := sampling.SimProf(ph, 40, 7)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sampling.EstimateOnTrace(ph, sp, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd100kDefault is the same pipeline at the options the
// simprofd service runs (TopK 100, k = 1..20, 4 restarts, 100 Lloyd
// iterations, n = 20). It reports the mean time of each stage per
// profile as decode-ns, form-ns and simprof-ns (allocation plus
// estimate), so a regression shows up in the layer that caused it.
func BenchmarkEndToEnd100kDefault(b *testing.B) {
	bin, _ := bench100kData(b)
	var decode, form, simprof time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		tr, err := Decode(bin)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		ph, err := phase.Form(tr, phase.Options{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		sp, err := sampling.SimProf(ph, 20, 7)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sampling.EstimateOnTrace(ph, sp, tr); err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		decode += t1.Sub(t0)
		form += t2.Sub(t1)
		simprof += t3.Sub(t2)
	}
	b.ReportMetric(float64(decode.Nanoseconds())/float64(b.N), "decode-ns")
	b.ReportMetric(float64(form.Nanoseconds())/float64(b.N), "form-ns")
	b.ReportMetric(float64(simprof.Nanoseconds())/float64(b.N), "simprof-ns")
}
