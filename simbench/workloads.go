package main

import (
	"fmt"
	"time"
)

// missPool is how many distinct traces serve-miss generates. Request i
// posts trace i mod missPool with seed i/missPool+1, so every request
// has a new cache key (the trace's hash plus its options) and runs the
// whole pipeline, while the inputs held stay a fixed size however many
// requests the server completes.
const missPool = 16

// serve-miss: independent users each submitting a new ~2k-unit
// profile request, so every request runs the pipeline and appends to
// history. The reference rate keeps the service at a third or less of
// what it sustains on a two-CPU host, so latency follows the service
// time: a higher rate brings a host slowed by neighbours near
// saturation, where queueing multiplies the slowdown.
var serveMiss = serveSpec{
	units:    2000,
	uploads:  missPool,
	refRate:  1,
	burst:    400,
	verify:   20,
	timing:   3 * time.Second,
	schedule: missSchedule,
}

func missSchedule(seed uint64, steps []Step) ([]Arrival, []serveOp) {
	sched := ScheduleTimes(seed, steps)
	ops := make([]serveOp, len(sched))
	for i := range ops {
		ops[i] = serveOp{Path: fmt.Sprintf("/v1/profile?n=%d&seed=%d", sampleN, i/missPool+1), Upload: i % missPool}
	}
	return sched, ops
}

func runServeMiss(cfg runCfg) (*Report, error) { return runServe("serve-miss", cfg, serveMiss) }
