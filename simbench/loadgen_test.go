package main

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestScheduleSameSeedSameSchedule(t *testing.T) {
	steps := []Step{{Rate: 50, Dur: time.Second}, {Rate: 200, Dur: time.Second}}
	a, b := ScheduleTimes(7, steps), ScheduleTimes(7, steps)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, ScheduleTimes(8, steps)) {
		t.Fatal("different seeds gave the same schedule")
	}
	perStep := map[int]int{}
	for i, x := range a {
		perStep[x.Step]++
		if i > 0 && x.Due < a[i-1].Due {
			t.Fatalf("arrival %d due %v before arrival %d due %v", i, x.Due, i-1, a[i-1].Due)
		}
	}
	// ±50% jitter around the mean gap keeps counts near rate × duration.
	if perStep[0] < 40 || perStep[0] > 60 || perStep[1] < 170 || perStep[1] > 230 {
		t.Fatalf("arrivals per step = %v, want about 50 and 200", perStep)
	}
}

// A handler that stalls on one request makes every request due during
// the stall wait in the generator. Timed from due time their latency
// grows, though each one's own service time stays tiny, and the
// generator reports how late it sent them.
func TestStallGrowsLatencyFromDue(t *testing.T) {
	sched := make([]Arrival, 40)
	for i := range sched {
		sched[i] = Arrival{Due: time.Duration(i) * 5 * time.Millisecond}
	}
	const stalled = 4
	const stall = 100 * time.Millisecond
	samples, gen := RunOpenLoop(context.Background(), sched, 1, func(i int) bool {
		if i == stalled {
			time.Sleep(stall)
		}
		return true
	})
	if gen.Sent != len(sched) {
		t.Fatalf("sent %d, want %d", gen.Sent, len(sched))
	}
	// The request due right after the stalled one waits out most of it.
	next := samples[stalled+1]
	if next.Latency() < stall*3/4 {
		t.Fatalf("latency from due after the stall = %v, want ≥ %v", next.Latency(), stall*3/4)
	}
	if served := next.Done - next.Sent; served > stall/4 {
		t.Fatalf("service time of the request after the stall = %v; the stall should show as waiting, not service", served)
	}
	if next.Late() < stall/2 {
		t.Fatalf("lateness after the stall = %v, want ≥ %v", next.Late(), stall/2)
	}
	if gen.LateP99 < stall/2 {
		t.Fatalf("generator late p99 = %v, want ≥ %v", gen.LateP99, stall/2)
	}
	// About stall/5ms arrivals came due while the caller was stalled.
	if gen.BacklogMax < 10 {
		t.Fatalf("backlog max = %d, want ≥ 10 arrivals queued behind the stall", gen.BacklogMax)
	}
	for _, s := range samples {
		if !s.OK {
			t.Fatal("a request was recorded as failed")
		}
	}
}

func TestOpenLoopWithoutStallIsOnTime(t *testing.T) {
	sched := ScheduleTimes(1, []Step{{Rate: 100, Dur: 200 * time.Millisecond}})
	samples, gen := RunOpenLoop(context.Background(), sched, 2, func(int) bool { return true })
	if gen.BacklogMax > 1 {
		t.Fatalf("backlog max = %d with an instant handler", gen.BacklogMax)
	}
	for i, s := range samples {
		if s.Sent < s.Due {
			t.Fatalf("request %d sent %v before it was due at %v", i, s.Sent, s.Due)
		}
	}
}

func TestOpenLoopStopDropsUnsent(t *testing.T) {
	sched := []Arrival{{Due: 0}, {Due: time.Hour}}
	ctx, cancel := context.WithCancel(context.Background())
	samples, gen := RunOpenLoop(ctx, sched, 1, func(int) bool { cancel(); return true })
	if !samples[0].OK || samples[1].OK || !samples[1].Dropped || gen.Sent != 1 || gen.Dropped != 1 {
		t.Fatalf("samples = %+v, stats %+v; want the first sent and ok, the second dropped", samples, gen)
	}
}

// A burst step queues its arrivals at the step's start, so every
// connection stays busy and the served rate is the handler's capacity.
func TestBurstStepMeasuresCapacity(t *testing.T) {
	steps := []Step{{Rate: 100, Dur: 100 * time.Millisecond}, {Dur: 200 * time.Millisecond, Burst: 1000}}
	sched := ScheduleTimes(3, steps)
	burst := 0
	for _, a := range sched {
		if a.Step == 1 {
			burst++
			if a.Due != steps[0].Dur {
				t.Fatalf("burst arrival due at %v, want the step's start %v", a.Due, steps[0].Dur)
			}
		}
	}
	if burst != 1000 {
		t.Fatalf("%d burst arrivals, want 1000", burst)
	}
	ctx, cancel := context.WithTimeout(context.Background(), steps[0].Dur+steps[1].Dur)
	defer cancel()
	const service = 5 * time.Millisecond
	samples, _ := RunOpenLoop(ctx, sched, 2, func(int) bool { time.Sleep(service); return true })
	rate, n := saturationRate(played{st: serveState{sched: sched}, samples: samples}, 1)
	// Two connections each serving one request per 5ms: 400/s at most.
	if n == 0 || n == burst || rate > 400*1.05 || rate < 400*0.6 {
		t.Fatalf("saturation: %d served at %.0f/s, want about 400/s and some dropped at the stop", n, rate)
	}
}
