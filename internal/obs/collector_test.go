package obs

import (
	"context"
	"sync"
	"testing"
)

func TestCollectorDisabledReturnsNil(t *testing.T) {
	Disable()
	defer Disable()
	ctx := context.Background()
	got, c := AttachCollector(ctx, "req")
	if c != nil || got != ctx {
		t.Fatalf("AttachCollector while disabled = (%v, %v), want (ctx unchanged, nil)", got, c)
	}
	var nilC *Collector
	if got := nilC.Detach(); got != nil {
		t.Fatalf("nil Collector.Detach() = %v, want nil", got)
	}
}

func TestCollectorCapturesSpanTree(t *testing.T) {
	Enable()
	defer Disable()

	ctx, c := AttachCollector(context.Background(), "req-1")
	if c == nil {
		t.Fatal("AttachCollector returned nil while enabled")
	}
	a := StartSpan(ctx, "stage.a")
	aa := StartSpan(ctx, "stage.a.inner")
	aa.End()
	a.End()
	b := StartSpan(ctx, "stage.b")
	b.End()
	root := c.Detach()

	if root == nil || root.Name != "req-1" {
		t.Fatalf("root = %+v, want name req-1", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	if root.Children[0].Name != "stage.a" || root.Children[1].Name != "stage.b" {
		t.Fatalf("children = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	if len(root.Children[0].Children) != 1 || root.Children[0].Children[0].Name != "stage.a.inner" {
		t.Fatalf("nested child missing: %+v", root.Children[0].Children)
	}
	if root.DurNS <= 0 {
		t.Fatalf("root DurNS = %d, want > 0 (closed at detach)", root.DurNS)
	}
	// Spans after detach must not resurrect the collector's tree.
	if s := StartSpan(ctx, "stage.after"); s != nil {
		t.Fatalf("StartSpan on a detached collector = %+v, want nil", s)
	}
	if len(root.Children) != 2 {
		t.Fatalf("detached tree grew to %d children", len(root.Children))
	}
}

// TestCollectorDetachClosesOpenSpans: a span still open at Detach is
// closed at the detach time, and the frozen tree ignores a late End or
// SetAttr from a goroutine that outlived the request.
func TestCollectorDetachClosesOpenSpans(t *testing.T) {
	Enable()
	defer Disable()

	ctx, c := AttachCollector(context.Background(), "req")
	open := StartSpan(ctx, "stage.open")
	root := c.Detach()
	if len(root.Children) != 1 || root.Children[0] != open {
		t.Fatalf("open span missing from the detached tree: %+v", root.Children)
	}
	closed := open.DurNS
	if closed <= 0 {
		t.Fatalf("open span DurNS = %d after Detach, want > 0", closed)
	}
	open.SetAttr("late", "1")
	open.End()
	if open.DurNS != closed || open.Attrs != nil {
		t.Fatalf("detached span changed after Detach: dur %d→%d, attrs %v", closed, open.DurNS, open.Attrs)
	}
}

func TestCollectorDoesNotTouchGlobalRun(t *testing.T) {
	Enable()
	defer Disable()

	run := StartRun("global-run")
	ctx, c := AttachCollector(context.Background(), "req")
	StartSpan(ctx, "req.stage").End()
	c.Detach()
	StartSpan(context.Background(), "global.stage").End()
	run.End()

	tree := SpanTree()
	if tree == nil || tree.Name != "global-run" {
		t.Fatalf("global tree = %+v", tree)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "global.stage" {
		t.Fatalf("global children = %+v, want only global.stage", tree.Children)
	}
}

func TestCollectorConcurrentIsolation(t *testing.T) {
	Enable()
	defer Disable()

	const goroutines = 16
	roots := make([]*Span, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, c := AttachCollector(context.Background(), "req")
			for j := 0; j < 8; j++ {
				s := StartSpan(ctx, "stage")
				inner := StartSpan(ctx, "inner")
				inner.End()
				s.End()
			}
			roots[i] = c.Detach()
		}(i)
	}
	wg.Wait()
	for i, r := range roots {
		if r == nil {
			t.Fatalf("goroutine %d: nil root", i)
		}
		if len(r.Children) != 8 {
			t.Fatalf("goroutine %d: %d children, want 8 (cross-collector leak?)", i, len(r.Children))
		}
	}
}

// TestCollectorFollowsContextAcrossGoroutines: the collector rides the
// context, so a goroutine handed the request's ctx — a flight executor,
// say — opens its spans in the request's tree, under whatever span is
// current there.
func TestCollectorFollowsContextAcrossGoroutines(t *testing.T) {
	Enable()
	defer Disable()

	ctx, c := AttachCollector(context.Background(), "req")
	wait := StartSpan(ctx, "wait")
	done := make(chan struct{})
	go func() {
		defer close(done)
		StartSpan(context.WithoutCancel(ctx), "exec").End()
	}()
	<-done
	wait.End()
	root := c.Detach()
	if len(root.Children) != 1 || len(root.Children[0].Children) != 1 ||
		root.Children[0].Children[0].Name != "exec" {
		t.Fatalf("exec span not under wait in the request tree: %+v", root.Children)
	}
}

func TestCollectorDetachIdempotent(t *testing.T) {
	Enable()
	defer Disable()

	ctx, c := AttachCollector(context.Background(), "req")
	StartSpan(ctx, "stage").End()
	first := c.Detach()
	second := c.Detach()
	if first == nil || second != first {
		t.Fatalf("Detach not idempotent: first=%p second=%p", first, second)
	}
}
