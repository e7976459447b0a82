package obs

import (
	"context"
	"sync"
	"time"
)

// Collector captures a request-scoped span tree. The CLI's span
// machinery (StartRun/SpanTree) is process-global — one tree per run —
// which is the wrong shape for a server handling concurrent requests.
// A Collector is the per-request counterpart: the handler attaches one
// to its request context, the pipeline stages underneath keep calling
// the ordinary StartSpan/End with that context, and those spans land in
// the request's own tree instead of the global one. Detach returns the
// finished tree.
//
// Routing is by context: StartSpan looks for a collector on ctx before
// falling back to the global run, so any goroutine the request's
// context reaches (a coalesced flight's executor, say) opens spans in
// the same tree. The parallel worker pools open no spans — same
// contract as the global tree, where concurrent work rides timer
// samples instead.
type Collector struct {
	t0 time.Time

	mu   sync.Mutex
	root *Span
	cur  *Span
}

// collectorKey is the context key a Collector rides under.
type collectorKey struct{}

// AttachCollector opens a new collector's root span and returns a
// context carrying it. While telemetry is disabled it returns ctx
// unchanged and a nil collector; nil collectors no-op on Detach, so
// call sites need no guards. A collector already on ctx is shadowed,
// not replaced: contexts derived from the returned one see the new
// collector, the caller's ctx keeps the old.
func AttachCollector(ctx context.Context, rootName string) (context.Context, *Collector) {
	if !enabled.Load() {
		return ctx, nil
	}
	now := time.Now()
	c := &Collector{t0: now}
	c.root = &Span{Name: rootName, GID: curGID(), start: now, col: c}
	c.cur = c.root
	return context.WithValue(ctx, collectorKey{}, c), c
}

// Detach closes the collector and returns its finished span tree. Any
// spans still open (including the root) are closed at the detach time,
// so a handler that panicked mid-stage still yields a coherent tree;
// later StartSpan, End and SetAttr calls on the collector's spans are
// no-ops, so the returned tree is frozen. Safe to call from any
// goroutine, and idempotent.
func (c *Collector) Detach() *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for s := c.cur; s != nil; s = s.parent {
		if s.DurNS == 0 {
			s.DurNS = now.Sub(s.start).Nanoseconds()
		}
	}
	c.cur = nil
	return c.root
}

// startSpan opens a child of the collector's current span.
func (c *Collector) startSpan(name string, gid int64) *Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil { // detached
		return nil
	}
	now := time.Now()
	s := &Span{
		Name:    name,
		StartNS: now.Sub(c.t0).Nanoseconds(),
		GID:     gid,
		parent:  c.cur,
		start:   now,
		col:     c,
	}
	c.cur.Children = append(c.cur.Children, s)
	c.cur = s
	return s
}

// end closes a collector-owned span, popping the cursor if it is
// current (mirrors the global End semantics). A detached collector's
// tree is frozen: Detach already closed the span.
func (c *Collector) end(s *Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return
	}
	s.DurNS = time.Since(s.start).Nanoseconds()
	if c.cur == s {
		c.cur = s.parent
	}
}
