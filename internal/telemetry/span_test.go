package telemetry

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// testClock is a manually advanced clock for deterministic span timing.
type testClock struct{ now time.Duration }

func (c *testClock) clock() time.Duration    { return c.now }
func (c *testClock) advance(d time.Duration) { c.now += d }

func TestSpanTreeTiming(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)

	root := tr.StartRoot("service.create", L("service", "web"))
	clk.advance(10 * time.Millisecond)
	adm := root.StartChild("admission")
	clk.advance(5 * time.Millisecond)
	adm.EndSpan()
	prime := root.StartChild("prime", L("node", "web-0"))
	dl := prime.StartChild("image.download")
	clk.advance(20 * time.Second)
	dl.EndSpan()
	boot := prime.StartChild("guest.boot")
	clk.advance(30 * time.Second)
	boot.EndSpan()
	prime.EndSpan()
	root.EndSpan()

	v := root.View()
	if v.Name != "service.create" || v.Attrs["service"] != "web" {
		t.Fatalf("root = %+v", v)
	}
	if len(v.Children) != 2 {
		t.Fatalf("children = %d", len(v.Children))
	}
	p, ok := v.Child("prime")
	if !ok {
		t.Fatal("no prime child")
	}
	d, ok := p.Child("image.download")
	if !ok || d.Duration() < 19.9 || d.Duration() > 20.1 {
		t.Fatalf("download = %+v", d)
	}
	b, _ := p.Child("guest.boot")
	// Children nest within the parent and tile it end to end.
	if d.StartSec < p.StartSec || b.EndSec > p.EndSec+1e-9 {
		t.Fatal("child spans escape parent")
	}
	if got := root.Duration(); got != 50*time.Second+15*time.Millisecond {
		t.Fatalf("root duration = %v", got)
	}
	if _, ok := v.Find("guest.boot"); !ok {
		t.Fatal("Find missed a grandchild")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every operation on a nil span must be a no-op, not a panic.
	child := sp.StartChild("y")
	child.Annotate("k", "v")
	child.EndSpan()
	sp.Fail(errors.New("boom"))
	if sp.Duration() != 0 {
		t.Fatal("nil span duration")
	}
	if _, ok := sp.Attr("k"); ok {
		t.Fatal("nil span attr")
	}
	if v := sp.View(); v.Name != "" {
		t.Fatal("nil span view")
	}
	if tr.Roots() != nil {
		t.Fatal("nil tracer roots")
	}
	tr.SetSpanLimit(5)
}

func TestSpanDoubleEndAndFail(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)
	sp := tr.StartRoot("op")
	clk.advance(time.Second)
	sp.EndSpan()
	clk.advance(time.Second)
	sp.EndSpan() // no-op
	if sp.Duration() != time.Second {
		t.Fatalf("duration = %v", sp.Duration())
	}
	f := tr.StartRoot("failing")
	f.Fail(errors.New("no capacity"))
	if msg, ok := f.Attr("error"); !ok || msg != "no capacity" {
		t.Fatalf("error attr = %q, %v", msg, ok)
	}
}

func TestSpanLimitEvictsOldest(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)
	tr.SetSpanLimit(3)
	for i := 0; i < 5; i++ {
		tr.StartRoot("op" + string(rune('0'+i))).EndSpan()
	}
	roots := tr.Roots()
	if len(roots) != 3 {
		t.Fatalf("retained %d roots", len(roots))
	}
	if roots[0].Name != "op2" || roots[2].Name != "op4" {
		t.Fatalf("roots = %v", roots)
	}
}

func TestRenderTextTree(t *testing.T) {
	clk := &testClock{}
	tr := NewTracer(clk.clock)
	root := tr.StartRoot("service.create", L("service", "web"))
	clk.advance(2 * time.Second)
	c := root.StartChild("prime", L("node", "web-0"))
	clk.advance(3 * time.Second)
	c.EndSpan()
	root.EndSpan()
	open := tr.StartRoot("in.flight")
	_ = open
	out := tr.RenderText()
	for _, want := range []string{"service.create service=web", "  prime node=web-0", "(5s)", "(open)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestWallTracer(t *testing.T) {
	tr := WallTracer()
	sp := tr.StartRoot("wall")
	sp.EndSpan()
	if sp.Duration() < 0 {
		t.Fatal("negative wall duration")
	}
}
