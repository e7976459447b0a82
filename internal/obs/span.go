package obs

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one timed region of a run. Spans form a tree: the CLI opens a
// root with StartRun, pipeline stages open children with StartSpan and
// close them with End. Durations come from the monotonic clock; the
// tree structure follows the driver's stage order, which is
// deterministic because stages open and close sequentially (timer
// samples, not spans, carry the concurrent work inside parallel loops).
type Span struct {
	Name string `json:"name"`
	// StartNS is the span's start offset from the root start, DurNS its
	// monotonic duration, both in nanoseconds.
	StartNS  int64   `json:"start_ns"`
	DurNS    int64   `json:"dur_ns"`
	Children []*Span `json:"children,omitempty"`
	// GID is the id of the goroutine that opened the span, so trace
	// viewers can lane spans by executor (0 in pre-v2 manifests).
	GID int64 `json:"gid,omitempty"`
	// Attrs are key=value annotations set with SetAttr (batch sizes,
	// queue waits, cache verdicts). Maps serialize with sorted keys, so
	// attributed spans stay deterministic in manifests and diffs.
	Attrs map[string]string `json:"attrs,omitempty"`

	parent *Span
	start  time.Time
	// col is set when the span belongs to a request-scoped Collector
	// instead of the global run tree; End routes accordingly.
	col *Collector
}

// curGID returns the running goroutine's id by parsing the
// "goroutine N [...]" header of its stack dump. Only called on enabled
// telemetry paths; the cost is a single-goroutine stack header write.
func curGID() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// Duration returns the span's measured duration.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurNS)
}

// SelfDuration returns the span's duration minus its children's — the
// time spent in the stage itself.
func (s *Span) SelfDuration() time.Duration {
	if s == nil {
		return 0
	}
	d := s.DurNS
	for _, c := range s.Children {
		d -= c.DurNS
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Walk visits the span and every descendant depth-first, passing each
// node's depth (0 for the receiver).
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		fn(sp, depth)
		for _, c := range sp.Children {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
}

// spanState is the process-wide span collector: one tree per run, with
// a "current" cursor that StartSpan attaches to and End pops, plus the
// run's concurrent timer samples.
var spanState struct {
	mu             sync.Mutex
	root           *Span
	current        *Span
	t0             time.Time
	samples        []TimerSample
	samplesDropped int64
}

// StartRun resets the span tree (and the timer-sample buffer) and opens
// a new root span. It returns nil (and collects nothing) while
// telemetry is disabled.
func StartRun(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	gid := curGID()
	spanState.mu.Lock()
	defer spanState.mu.Unlock()
	now := time.Now()
	root := &Span{Name: name, GID: gid, start: now}
	spanState.root = root
	spanState.current = root
	spanState.t0 = now
	spanState.samples = nil
	spanState.samplesDropped = 0
	return root
}

// StartSpan opens a child of the current span and makes it current.
// Disabled telemetry (or no active run) returns nil; nil spans no-op on
// End, so call sites need no guards. If ctx carries a request-scoped
// Collector, the span lands in that tree instead of the global run.
func StartSpan(ctx context.Context, name string) *Span {
	if !enabled.Load() {
		return nil
	}
	gid := curGID()
	if c, _ := ctx.Value(collectorKey{}).(*Collector); c != nil {
		return c.startSpan(name, gid)
	}
	spanState.mu.Lock()
	defer spanState.mu.Unlock()
	if spanState.current == nil {
		return nil
	}
	now := time.Now()
	s := &Span{
		Name:    name,
		StartNS: now.Sub(spanState.t0).Nanoseconds(),
		GID:     gid,
		parent:  spanState.current,
		start:   now,
	}
	spanState.current.Children = append(spanState.current.Children, s)
	spanState.current = s
	return s
}

// End closes the span, recording its monotonic duration. If the span is
// the current one, the cursor pops back to its parent; ending out of
// order just records the duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.col != nil {
		s.col.end(s)
		return
	}
	spanState.mu.Lock()
	defer spanState.mu.Unlock()
	s.DurNS = time.Since(s.start).Nanoseconds()
	if spanState.current == s {
		spanState.current = s.parent
	}
}

// SetAttr annotates the span with a key=value attribute, shown by
// inspect and carried into manifests and trace exports. Nil spans (the
// disabled path) no-op. Attributes take the span's owning lock, so
// SetAttr is safe from the goroutine that opened the span even while
// other goroutines snapshot the tree.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.col != nil {
		s.col.mu.Lock()
		defer s.col.mu.Unlock()
		if s.col.cur == nil { // detached: the tree is frozen
			return
		}
	} else {
		spanState.mu.Lock()
		defer spanState.mu.Unlock()
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[key] = value
}

// SpanTree returns the current run's root span, or nil if no run was
// started. The returned tree is live; call after the root's End.
func SpanTree() *Span {
	spanState.mu.Lock()
	defer spanState.mu.Unlock()
	return spanState.root
}

// Timer marks a start time for histogram-recorded durations. The zero
// Timer (returned while telemetry is disabled) records nothing, so the
// disabled path performs no clock reads and no allocations.
type Timer struct{ t time.Time }

// StartTimer returns a running timer, or the zero Timer when disabled.
func StartTimer() Timer {
	if !enabled.Load() {
		return Timer{}
	}
	return Timer{t: time.Now()}
}

// TimerSample is one concurrent timed interval captured by ObserveTimer
// while a run was active: which histogram it fed, which goroutine ran
// it, and when it ran relative to the run's root span. Samples are the
// parallel-pool complement of the sequential span tree — trace export
// lanes them by GID next to the driver's stages.
type TimerSample struct {
	Name    string `json:"name"`
	GID     int64  `json:"gid"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// maxTimerSamples bounds the per-run sample buffer so a hot loop cannot
// grow telemetry state without limit; overflow is counted, not stored.
const maxTimerSamples = 8192

// ObserveTimer records the elapsed seconds since t started. Zero timers
// and nil histograms no-op. While a run is active the interval is also
// captured as a TimerSample for trace export.
func (h *Histogram) ObserveTimer(t Timer) {
	if h == nil || t.t.IsZero() {
		return
	}
	d := time.Since(t.t)
	h.Observe(d.Seconds())
	recordTimerSample(h.name, t.t, d)
}

// recordTimerSample appends one sample to the active run's buffer.
// Concurrent callers interleave nondeterministically; TimerSamples
// sorts before returning so serialized output is stable up to the
// measured times themselves.
func recordTimerSample(name string, start time.Time, d time.Duration) {
	if !enabled.Load() {
		return
	}
	gid := curGID()
	spanState.mu.Lock()
	defer spanState.mu.Unlock()
	if spanState.root == nil {
		return
	}
	if len(spanState.samples) >= maxTimerSamples {
		spanState.samplesDropped++
		return
	}
	spanState.samples = append(spanState.samples, TimerSample{
		Name:    name,
		GID:     gid,
		StartNS: start.Sub(spanState.t0).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
	})
}

// TimerSamples returns the active run's captured samples sorted by
// (start, name, gid), plus the count dropped to the buffer bound.
func TimerSamples() ([]TimerSample, int64) {
	spanState.mu.Lock()
	out := append([]TimerSample(nil), spanState.samples...)
	dropped := spanState.samplesDropped
	spanState.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartNS != out[b].StartNS {
			return out[a].StartNS < out[b].StartNS
		}
		if out[a].Name != out[b].Name {
			return out[a].Name < out[b].Name
		}
		return out[a].GID < out[b].GID
	})
	return out, dropped
}
