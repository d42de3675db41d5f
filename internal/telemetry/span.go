package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// A Span is one timed stage of a control-plane operation. Spans form a
// tree: a priming request is a root span whose children are admission,
// slice allocation, image download, guest boot, and service bootstrap, so
// the paper's Table 2 / Figure 4 stage breakdowns fall out of the span
// tree directly. Timestamps are offsets from the tracer's epoch — virtual
// time when the tracer is clocked by the simulation kernel, wall time
// when clocked by time.Since.
//
// All Span methods are nil-receiver safe, so instrumented code never
// needs to guard for a disabled tracer.
type Span struct {
	tracer *Tracer

	// Name is the span's stage name ("service.create", "image.download").
	Name string
	// Trace identifies the tree this span belongs to: every root gets the
	// tracer's next sequential trace ID and children inherit it, so log
	// records and histogram exemplars can point back at a whole operation.
	// ID is the span's own sequence number, unique within the tracer.
	// Both are deterministic — same run, same IDs.
	Trace, ID uint64
	// Start and End are offsets from the tracer epoch. End is zero while
	// the span is open (an open span with Start 0 is still considered
	// running).
	Start, End time.Duration

	attrs    []Label
	children []*Span
	ended    bool
}

// Tracer creates and retains spans. It is clocked externally — pass the
// simulation kernel's virtual clock or a wall clock — and is safe for
// concurrent use. A nil tracer hands out nil spans; every span operation
// on them is a no-op.
type Tracer struct {
	mu        sync.Mutex
	clock     func() time.Duration
	roots     []*Span
	limit     int
	nextTrace uint64
	nextSpan  uint64
}

// DefaultSpanLimit bounds retained root spans so a long-running sodad
// does not grow without bound; the oldest roots are evicted first.
const DefaultSpanLimit = 1024

// NewTracer returns a tracer reading timestamps from clock (an offset
// from any fixed epoch). A nil clock panics.
func NewTracer(clock func() time.Duration) *Tracer {
	if clock == nil {
		panic("telemetry: nil tracer clock")
	}
	return &Tracer{clock: clock, limit: DefaultSpanLimit}
}

// WallTracer returns a tracer clocked by wall time since now.
func WallTracer() *Tracer {
	epoch := time.Now()
	return NewTracer(func() time.Duration { return time.Since(epoch) })
}

// SetSpanLimit bounds retained root spans (≤ 0 restores the default).
func (t *Tracer) SetSpanLimit(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultSpanLimit
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// StartRoot opens a new root span. Nil-safe: a nil tracer returns a nil
// span.
func (t *Tracer) StartRoot(name string, attrs ...Label) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTrace++
	t.nextSpan++
	sp := &Span{
		tracer: t, Name: name, Trace: t.nextTrace, ID: t.nextSpan,
		Start: t.clock(), attrs: append([]Label(nil), attrs...),
	}
	t.roots = append(t.roots, sp)
	if over := len(t.roots) - t.limit; over > 0 {
		t.roots = append([]*Span(nil), t.roots[over:]...)
	}
	return sp
}

// StartChild opens a child span under s. Nil-safe.
func (s *Span) StartChild(name string, attrs ...Label) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	child := &Span{
		tracer: t, Name: name, Trace: s.Trace, ID: t.nextSpan,
		Start: t.clock(), attrs: append([]Label(nil), attrs...),
	}
	s.children = append(s.children, child)
	return child
}

// Annotate attaches a key=value attribute to the span. Nil-safe.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
	s.tracer.mu.Unlock()
}

// EndSpan closes the span at the tracer's current clock. Ending twice is
// a no-op. Nil-safe.
func (s *Span) EndSpan() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.End = t.clock()
	}
}

// Fail annotates the span with an error and ends it. Nil-safe.
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Annotate("error", err.Error())
	}
	s.EndSpan()
}

// Duration returns End-Start for an ended span; for an open span it
// returns 0. Nil-safe.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.End - s.Start
}

// TraceID returns the span's trace identifier; 0 on a nil span. Trace is
// assigned at creation and never mutated, so no lock is needed.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.Trace
}

// Attr returns the value of the named attribute, if present. Nil-safe.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// SpanView is an immutable deep copy of a span subtree, the form the
// exposition endpoints and tests consume.
type SpanView struct {
	Name     string            `json:"name"`
	Trace    uint64            `json:"trace,omitempty"`
	ID       uint64            `json:"span,omitempty"`
	StartSec float64           `json:"start_sec"`
	EndSec   float64           `json:"end_sec"`
	Open     bool              `json:"open,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanView        `json:"children,omitempty"`
}

// Duration returns the span's duration in seconds.
func (v SpanView) Duration() float64 { return v.EndSec - v.StartSec }

// Child returns the first direct child with the given name.
func (v SpanView) Child(name string) (SpanView, bool) {
	for _, c := range v.Children {
		if c.Name == name {
			return c, true
		}
	}
	return SpanView{}, false
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at v, including v itself.
func (v SpanView) Find(name string) (SpanView, bool) {
	if v.Name == name {
		return v, true
	}
	for _, c := range v.Children {
		if got, ok := c.Find(name); ok {
			return got, true
		}
	}
	return SpanView{}, false
}

// viewLocked deep-copies a span; the tracer lock is held.
func (s *Span) viewLocked() SpanView {
	v := SpanView{
		Name:     s.Name,
		Trace:    s.Trace,
		ID:       s.ID,
		StartSec: s.Start.Seconds(),
		EndSec:   s.End.Seconds(),
		Open:     !s.ended,
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			v.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		v.Children = append(v.Children, c.viewLocked())
	}
	return v
}

// View snapshots this span's subtree. Nil-safe (zero view).
func (s *Span) View() SpanView {
	if s == nil {
		return SpanView{}
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.viewLocked()
}

// Roots snapshots all retained root spans, oldest first. Nil-safe.
func (t *Tracer) Roots() []SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanView, len(t.roots))
	for i, sp := range t.roots {
		out[i] = sp.viewLocked()
	}
	return out
}

// RenderText renders the retained span trees as an indented timeline:
//
//	service.create service=web                 t+0s .. t+42.1s (42.1s)
//	  admission                                t+0s .. t+0.01s (10ms)
//	  prime node=web-0                         t+0.01s .. t+40s (40s)
//	    image.download                         ...
func (t *Tracer) RenderText() string {
	var b strings.Builder
	for _, root := range t.Roots() {
		renderSpan(&b, root, 0)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, v SpanView, depth int) {
	label := v.Name
	// Stable attribute ordering for rendering.
	keys := make([]string, 0, len(v.Attrs))
	for k := range v.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		label += fmt.Sprintf(" %s=%s", k, v.Attrs[k])
	}
	pad := strings.Repeat("  ", depth)
	if v.Open {
		fmt.Fprintf(b, "%s%-*s t+%.4gs .. (open)\n", pad, 44-len(pad), label, v.StartSec)
	} else {
		fmt.Fprintf(b, "%s%-*s t+%.4gs .. t+%.4gs (%.4gs)\n",
			pad, 44-len(pad), label, v.StartSec, v.EndSec, v.Duration())
	}
	for _, c := range v.Children {
		renderSpan(b, c, depth+1)
	}
}
