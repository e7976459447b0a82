package main

import (
	"context"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Step is one stretch of an open-loop schedule: arrivals at a fixed
// rate, or, when Burst is set, Burst arrivals all due at the stretch's
// start, so the generator has a request waiting for every connection
// until the stretch ends (a saturation step).
type Step struct {
	Rate  float64       // arrivals per second
	Dur   time.Duration // length of the stretch
	Burst int           // arrivals due at the start instead of a rate
}

// Arrival is one scheduled request: when it is due and which step it
// belongs to.
type Arrival struct {
	Due  time.Duration
	Step int
}

// ScheduleTimes lays arrivals over the steps at their fixed rates. Gaps
// are the rate's mean gap with seeded uniform jitter of ±50%, so
// arrivals are independent of how fast the server answers (an open
// loop) but less clumped than a Poisson stream, which keeps queueing
// noise between seeds small. A burst step's arrivals are all due at its
// start. The same seed gives the same schedule.
func ScheduleTimes(seed uint64, steps []Step) []Arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5eed5c4ed))
	var out []Arrival
	var base time.Duration
	for si, st := range steps {
		end := base + st.Dur
		if st.Burst > 0 {
			for i := 0; i < st.Burst; i++ {
				out = append(out, Arrival{Due: base, Step: si})
			}
			base = end
			continue
		}
		gap := float64(time.Second) / st.Rate
		t := base + time.Duration(gap*rng.Float64())
		for t < end {
			out = append(out, Arrival{Due: t, Step: si})
			t += time.Duration(gap * (0.5 + rng.Float64()))
		}
		base = end
	}
	return out
}

// Sample is what the generator recorded for one arrival. Latency is
// Done-Due: a request that waited in the generator because every
// connection was busy is charged that wait. Dropped marks an arrival
// the generator never sent because it was stopped first.
type Sample struct {
	Due, Sent, Done time.Duration
	OK, Dropped     bool
}

// Latency is the request's time from due to completion.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how long after its due time the request was sent.
func (s Sample) Late() time.Duration { return s.Sent - s.Due }

// GenStats describes how well the generator kept to its schedule.
type GenStats struct {
	Sent       int           // requests issued
	Dropped    int           // arrivals never sent
	LateP99    time.Duration // 99th percentile of send lateness
	BacklogMax int           // most requests due but not yet sent at any send
}

// RunOpenLoop issues the schedule over at most conns concurrent
// callers. Each caller claims the next arrival in order, waits until it
// is due, and calls do; an arrival that comes due while every caller
// is busy waits in the generator and is still timed from its due time.
// do must return whether the request succeeded. Once ctx ends no more
// arrivals are sent; requests in flight finish, the rest are dropped.
func RunOpenLoop(ctx context.Context, sched []Arrival, conns int, do func(i int) bool) ([]Sample, GenStats) {
	samples := make([]Sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				if wait := a.Due - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				if ctx.Err() != nil {
					samples[i] = Sample{Due: a.Due, Sent: a.Due, Done: a.Due, Dropped: true}
					continue
				}
				sent := time.Since(start)
				ok := do(i)
				samples[i] = Sample{Due: a.Due, Sent: sent, Done: time.Since(start), OK: ok}
			}
		}()
	}
	wg.Wait()
	return samples, genStats(samples)
}

// genStats derives lateness and backlog from the recorded samples.
// Arrivals are claimed in schedule order, so when arrival i is sent
// every earlier one has been sent: the backlog at that moment is the
// count of arrivals due by then, minus i.
func genStats(samples []Sample) GenStats {
	var st GenStats
	var late []float64
	for i, s := range samples {
		if s.Dropped {
			st.Dropped++
			continue
		}
		st.Sent++
		late = append(late, float64(s.Late()))
		due := sort.Search(len(samples), func(j int) bool { return samples[j].Due > s.Sent })
		if b := due - i - 1; b > st.BacklogMax {
			st.BacklogMax = b
		}
	}
	st.LateP99 = time.Duration(Quantile(late, 0.99))
	return st
}
