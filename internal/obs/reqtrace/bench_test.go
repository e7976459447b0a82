package reqtrace

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkReqTraceDisabled is the disabled request-tracing path: a nil
// engine's Start/Finish, exactly what the server middleware executes
// per request when tracing is off. The contract (bench-smoke-enforced)
// is 0 allocs/op — turning the feature off must cost two nil checks.
func BenchmarkReqTraceDisabled(b *testing.B) {
	var e *Engine
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, a := e.Start(ctx, "id", "/v1/profile", "default")
		e.Finish(a, 200, "ok", 0, time.Millisecond)
	}
}

// BenchmarkReqTraceEnabled is the instrumented cost: stratify, reservoir
// decision, budget enforcement and periodic Neyman rebalance, on a
// steady-state engine (telemetry disabled, so the obs counter calls are
// their no-op fast path — the engine's own arithmetic is what's
// measured).
func BenchmarkReqTraceEnabled(b *testing.B) {
	clk := newSteppedClock()
	e := New(Config{Budget: 256, Rebalance: 64, Seed: 31, Now: clk.now})
	defer e.Stop()
	// Pre-warm: realistic stratum population before measuring.
	for i := 0; i < 2000; i++ {
		finish(e, fmt.Sprintf("warm%d", i), "/v1/profile", 200, "ok", time.Duration(1+i%200)*time.Millisecond)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, a := e.Start(ctx, "bench", "/v1/profile", "default")
		e.Finish(a, 200, "ok", 0, time.Duration(1+i%200)*time.Millisecond)
	}
}
