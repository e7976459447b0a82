package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"

	"simprof/internal/history"
	"simprof/internal/obs"
	"simprof/internal/stats"
	"simprof/internal/synth"
	"simprof/internal/tracebin"
)

// Upload is one generated trace as the program receives it: tracebin
// bytes, plus what the benchmark knows about it from generation.
type Upload struct {
	Data   []byte
	Units  int
	Oracle float64 // whole-trace CPI the estimate is judged against
}

// makeUpload generates a synth trace of the given size and encodes it
// with tracebin. The trace's seed is derived from the workload seed and
// the upload's index, so the same workload seed gives the same bytes.
func makeUpload(units int, seed uint64, index uint64) (Upload, error) {
	tr, err := synth.DefaultTrace(units, stats.SplitSeed(seed, index)).Generate()
	if err != nil {
		return Upload{}, fmt.Errorf("generate %d-unit trace: %w", units, err)
	}
	data, err := tracebin.Marshal(tr)
	if err != nil {
		return Upload{}, fmt.Errorf("encode %d-unit trace: %w", units, err)
	}
	return Upload{Data: data, Units: len(tr.Units), Oracle: tr.OracleCPI()}, nil
}

// makeUploads generates count uploads of one size, indices 0..count-1.
func makeUploads(units int, seed uint64, count int) ([]Upload, error) {
	out := make([]Upload, count)
	for i := range out {
		u, err := makeUpload(units, seed, uint64(i))
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

// inputMB is the heap the uploads' bytes take, in MB. Heap figures
// leave it out, so they show what the program holds, not the inputs
// the benchmark generated for it.
func inputMB(ups []Upload) float64 {
	n := 0
	for _, u := range ups {
		n += cap(u.Data)
	}
	return float64(n) / 1e6
}

// preAgeHistory writes a history store of records committed profiles,
// the state a daemon reaches after running a while. Records carry the
// manifest sections the service itself persists, with values drawn
// from the seed, and a fixed timestamp so the file is reproducible.
func preAgeHistory(path string, records int, seed uint64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pre-age history: %w", err)
	}
	w := bufio.NewWriter(f)
	rng := rand.New(rand.NewPCG(seed, 0xa9ed))
	for i := 1; i <= records; i++ {
		est := 1 + rng.Float64()
		se := 0.01 + 0.02*rng.Float64()
		m := obs.NewManifest("simprofd profile", nil)
		m.Workload = &obs.WorkloadInfo{
			Benchmark: "synth", Framework: "spark", Input: "synthetic",
			Seed: rng.Uint64() % 1000, Units: 2000, UnitInstr: 100_000_000,
		}
		m.Phases = &obs.PhaseInfo{K: 2 + rng.IntN(6), Silhouette: 0.5 + 0.4*rng.Float64()}
		m.Sampling = &obs.SamplingInfo{
			Method: "simprof", N: 20, Confidence: 0.997,
			EstCPI: est, SE: se, CILo: est - 3*se, CIHi: est + 3*se, SEInflation: 1,
		}
		rec := history.FromManifest(m)
		rec.Seq = i
		rec.Time = "2026-01-01T00:00:00Z"
		rec.Note = "profile synth_spark n=20"
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return fmt.Errorf("pre-age history: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	// No fsync: the file stands for history committed long ago, and
	// syncing it would put the disk's latency into setup_s.
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("pre-age history: %w", err)
	}
	return f.Close()
}
