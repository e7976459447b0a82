#!/bin/sh
# Benchmark snapshot for the performance-tracked kernels: the k sweep
# (ChooseK, including ChooseKDense_4096x100 at the shape a sampled
# profile sweeps), phase formation end-to-end across worker counts
# (FormPhases), the naive-vs-pruned Lloyd kernel pair (KMeansDense),
# sparse vectorization, SimProf's stratified selection, the telemetry
# fast paths (disabled must stay at 0 allocs/op, enabled is the
# instrumented cost — the labeled families and sliding windows in
# ObsDisabledLabeled carry the same contract), the access-log request
# path (AccessLog: enqueue with a live logger vs the nil no-op), and
# the columnar trace format (DecodeBin vs the
# legacy DecodeGob on the same 100k-unit trace, plus EndToEnd100k —
# the decode → Form → allocate → estimate pipeline whose <100ms budget
# the gate enforces — and EndToEnd100kDefault, the same pipeline at the
# service's default formation options with per-stage decode-ns,
# form-ns and simprof-ns metrics), the request-trace retention engine (ReqTrace:
# disabled must stay at 0 allocs/op, enabled is the stratify + reservoir
# + rebalance cost), and the simprofd service under concurrent load
# (SimprofdP99 reports the p99 request latency as its ns/op metric so
# the tail rides the same gate; SimprofdStorm drives a duplicate-heavy
# storm through the default path and the cache-off baseline, reporting p99
# as ns/op plus req/s and the measured dedup ratio — the duplicate
# fraction is tunable with SIMPROF_STORM_DUP). Results stream to
# BENCH_pipeline.json in `go test -json` (test2json) format so CI can
# diff runs; the classic benchmark lines echo to stdout for humans.
set -eu

OUT="${1:-BENCH_pipeline.json}"
BENCHTIME="${BENCHTIME:-1x}"
# BENCHCOUNT > 1 repeats every benchmark so the regression gate
# (simprof history gate) can take medians and measure baseline noise.
BENCHCOUNT="${BENCHCOUNT:-1}"

go test -run '^$' \
	-bench '^(BenchmarkChooseK|BenchmarkFormPhases|BenchmarkKMeansDense|BenchmarkVectorizeSparse$|BenchmarkSimProfSelection$|BenchmarkTelemetry|BenchmarkObsDisabledLabeled$|BenchmarkDecodeBin$|BenchmarkDecodeGob$|BenchmarkEndToEnd100k$|BenchmarkEndToEnd100kDefault$|BenchmarkSimprofdP99$|BenchmarkSimprofdStorm$|BenchmarkAccessLog$|BenchmarkReqTrace)' \
	-benchtime "$BENCHTIME" -count "$BENCHCOUNT" -benchmem -json \
	./internal/cluster ./internal/phase ./internal/sampling ./internal/obs ./internal/obs/reqtrace ./internal/tracebin ./internal/server \
	>"$OUT"

echo "wrote $OUT"
# Re-surface the human-readable result lines: test2json may split a
# benchmark's name and its result into separate Output events, so
# reassemble the raw stream before filtering.
grep -o '"Output":"[^"]*"' "$OUT" |
	sed -e 's/^"Output":"//' -e 's/"$//' |
	awk '{ printf "%s", $0 } END { print "" }' |
	sed -e 's/\\n/\n/g' -e 's/\\t/\t/g' |
	grep 'ns/op'
