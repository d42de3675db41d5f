package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// manualClock is a settable test clock.
type manualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *manualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newTestRecorder() (*Recorder, *manualClock) {
	clk := &manualClock{}
	return NewRecorder(Options{Clock: clk.Now}), clk
}

func TestNilLoggerAndRecorderAreNoOps(t *testing.T) {
	var l *Logger
	l.Info("ignored", telemetry.L("k", "v"))
	l.Errorf("ignored %d", 1)
	l.SetConsole(&bytes.Buffer{})
	l.SetMinLevel(LevelError)
	if l.Enabled(LevelError) {
		t.Fatal("nil logger reports enabled")
	}
	if d := l.Component("x").WithTrace(7); d != nil {
		t.Fatal("derived logger from nil logger is non-nil")
	}

	var r *Recorder
	r.CaptureMetrics()
	r.Tick()
	r.SealAll()
	if id := r.Trigger("manual", "", ""); id != "" {
		t.Fatalf("nil recorder returned incident id %q", id)
	}
	if got := r.Tail(10, LevelDebug, ""); got != nil {
		t.Fatalf("nil recorder Tail = %v", got)
	}
	if r.Incidents() != nil || r.Incident("x") != nil || r.Seq() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if NewLogger(nil) != nil || NewConsole(nil) != nil {
		t.Fatal("constructors should yield nil loggers for nil inputs")
	}
}

func TestRingWraparound(t *testing.T) {
	rec, clk := newTestRecorder()
	log := NewLogger(rec).Component("test")
	const over = 12
	for i := 0; i < ringCapacity+over; i++ {
		clk.Advance(time.Millisecond)
		log.Infof("msg-%d", i)
	}
	if got := rec.Seq(); got != ringCapacity+over {
		t.Fatalf("Seq = %d, want %d", got, ringCapacity+over)
	}
	tail := rec.Tail(2*ringCapacity, LevelDebug, "")
	if len(tail) != ringCapacity {
		t.Fatalf("Tail returned %d records, want ring capacity %d", len(tail), ringCapacity)
	}
	for i, rv := range tail {
		want := fmt.Sprintf("msg-%d", over+i)
		if rv.Msg != want {
			t.Fatalf("tail[%d].Msg = %q, want %q", i, rv.Msg, want)
		}
		if rv.Seq != uint64(over+i) {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, rv.Seq, over+i)
		}
	}
}

func TestTailFilters(t *testing.T) {
	rec, clk := newTestRecorder()
	root := NewLogger(rec)
	a, b := root.Component("alpha"), root.Component("beta")
	clk.Advance(time.Second)
	a.Debug("a-debug")
	a.Warn("a-warn")
	b.Error("b-error")
	if got := rec.Tail(10, LevelWarn, ""); len(got) != 2 {
		t.Fatalf("level filter: got %d records, want 2", len(got))
	}
	got := rec.Tail(10, LevelDebug, "beta")
	if len(got) != 1 || got[0].Msg != "b-error" {
		t.Fatalf("component filter: got %+v", got)
	}
}

func TestMinLevelAndLabels(t *testing.T) {
	rec, _ := newTestRecorder()
	log := NewLogger(rec)
	log.SetMinLevel(LevelWarn)
	log.Info("dropped")
	sw := log.Component("switch", telemetry.L("service", "web")).WithTrace(42)
	sw.Warn("backend ejected", telemetry.L("backend", "b0"))
	tail := rec.Tail(10, LevelDebug, "")
	if len(tail) != 1 {
		t.Fatalf("got %d records, want 1 (info dropped)", len(tail))
	}
	rv := tail[0]
	if rv.Trace != 42 || rv.Labels["service"] != "web" || rv.Labels["backend"] != "b0" {
		t.Fatalf("record = %+v", rv)
	}
	// Label overflow is dropped, not panicking.
	sw.Warn("many", telemetry.L("a", "1"), telemetry.L("b", "2"),
		telemetry.L("c", "3"), telemetry.L("d", "4"), telemetry.L("e", "5"))
	tail = rec.Tail(1, LevelDebug, "")
	if n := len(tail[0].Labels); n != MaxLabels {
		t.Fatalf("labels kept = %d, want %d", n, MaxLabels)
	}
}

func TestConcurrentWriters(t *testing.T) {
	rec, _ := newTestRecorder()
	root := NewLogger(rec)
	// Enough records to wrap the ring while the writers race.
	const writers, each = 8, ringCapacity / 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			log := root.Component(fmt.Sprintf("w%d", w)).WithTrace(uint64(w + 1))
			for i := 0; i < each; i++ {
				log.Info("tick", telemetry.L("i", fmt.Sprint(i)))
				if i%100 == 0 {
					rec.Tail(16, LevelDebug, "")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := rec.Seq(); got != writers*each {
		t.Fatalf("Seq = %d, want %d", got, writers*each)
	}
	// Every surviving record must be coherent (component matches trace).
	for _, rv := range rec.Tail(64, LevelDebug, "") {
		want := fmt.Sprintf("w%d", rv.Trace-1)
		if rv.Comp != want {
			t.Fatalf("torn record: comp=%q trace=%d", rv.Comp, rv.Trace)
		}
	}
}

func TestTriggerDedupAndCooldown(t *testing.T) {
	rec, clk := newTestRecorder()
	if id := rec.Trigger("host-dead", "tacoma", "lost heartbeats"); id == "" {
		t.Fatal("first trigger suppressed")
	}
	if id := rec.Trigger("host-dead", "tacoma", "again"); id != "" {
		t.Fatalf("duplicate trigger inside cooldown fired: %q", id)
	}
	// Different subject and different trigger kind both pass.
	if id := rec.Trigger("host-dead", "olympia", ""); id == "" {
		t.Fatal("different subject suppressed")
	}
	if id := rec.Trigger("slo-violation", "tacoma", ""); id == "" {
		t.Fatal("different trigger kind suppressed")
	}
	if got := rec.Suppressed(); got != 1 {
		t.Fatalf("Suppressed = %d, want 1", got)
	}
	// After the cooldown the same key fires again.
	clk.Advance(cooldown + time.Second)
	rec.Tick() // seals the three open incidents
	if id := rec.Trigger("host-dead", "tacoma", "flapped back"); id == "" {
		t.Fatal("trigger after cooldown suppressed")
	}
	incs := rec.Incidents()
	if len(incs) != 4 {
		t.Fatalf("incidents = %d, want 4", len(incs))
	}
	if incs[0].Open || !incs[3].Open {
		t.Fatalf("expected 3 sealed + 1 open, got %+v", incs)
	}
}

func TestIncidentCaptureWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &manualClock{}
	rec := NewRecorder(Options{
		Clock:   clk.Now,
		Metrics: reg.Snapshot,
		Routes:  func() []RouteTable { return []RouteTable{{Service: "web", Table: "v1"}} },
		Faults:  func() []string { return []string{"host-crash tacoma"} },
	})
	log := NewLogger(rec).Component("test")
	reg.Counter("requests").Add(3)
	// One record more than the pre-trigger context holds.
	var want []string
	for i := 1; i <= preRecords+1; i++ {
		log.Infof("before-%d", i)
		if i > 1 {
			want = append(want, fmt.Sprintf("before-%d", i))
		}
	}

	clk.Advance(time.Second)
	id := rec.Trigger("host-suspected", "tacoma", "missed 3 heartbeats")
	if id != "inc-1-host-suspected" {
		t.Fatalf("incident id = %q", id)
	}
	reg.Counter("requests").Add(4)
	log.Warn("during")
	clk.Advance(postWindow - time.Second)
	log.Info("still-during")
	rec.Tick() // not yet due
	if got := rec.Incident(id); got == nil || !got.Open {
		t.Fatalf("incident should still be open: %+v", got)
	}
	clk.Advance(2 * time.Second)
	log.Info("after-deadline") // past the window: not captured
	rec.Tick()

	inc := rec.Incident(id)
	if inc == nil || inc.Open {
		t.Fatalf("incident not sealed: %+v", inc)
	}
	var msgs []string
	for _, rv := range inc.Records {
		msgs = append(msgs, rv.Msg)
	}
	want = append(want, "during", "still-during")
	if strings.Join(msgs, ",") != strings.Join(want, ",") {
		t.Fatalf("records = %v, want %v", msgs, want)
	}
	if inc.MetricDelta == nil || inc.MetricDelta.Counter("requests") != 4 {
		t.Fatalf("metric delta = %+v, want requests delta 4", inc.MetricDelta)
	}
	if len(inc.Routes) != 1 || inc.Routes[0].Service != "web" {
		t.Fatalf("routes = %+v", inc.Routes)
	}
	if len(inc.Faults) != 1 {
		t.Fatalf("faults = %+v", inc.Faults)
	}
	if sealed := (postWindow + 2*time.Second).Seconds(); inc.SealedSec != sealed {
		t.Fatalf("sealed at %vs, want %vs", inc.SealedSec, sealed)
	}

	// Sealed bundles marshal deterministically.
	b1, err := json.Marshal(inc)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(rec.Incident(id))
	if !bytes.Equal(b1, b2) {
		t.Fatal("sealed incident marshaling is unstable")
	}
}

func TestIncidentRecordCap(t *testing.T) {
	rec, clk := newTestRecorder()
	log := NewLogger(rec)
	rec.Trigger("manual", "", "")
	for i := 0; i < maxIncidentRecords+5; i++ {
		clk.Advance(time.Millisecond)
		log.Info("x")
	}
	rec.SealAll()
	inc := rec.Incidents()[0]
	if len(inc.Records) != maxIncidentRecords || inc.Truncated != 5 {
		t.Fatalf("records=%d truncated=%d, want %d/5", len(inc.Records), inc.Truncated, maxIncidentRecords)
	}
}

func TestSealedIncidentsEvictOldestFirst(t *testing.T) {
	rec, _ := newTestRecorder()
	for i := 0; i < maxIncidents+2; i++ {
		rec.Trigger("manual", fmt.Sprint(i), "")
	}
	rec.SealAll()
	incs := rec.Incidents()
	if len(incs) != maxIncidents {
		t.Fatalf("retained %d incidents, want %d", len(incs), maxIncidents)
	}
	if incs[0].ID != "inc-3-manual" || incs[len(incs)-1].Subject != fmt.Sprint(maxIncidents+1) {
		t.Fatalf("retained %s..%s, want the newest %d", incs[0].ID, incs[len(incs)-1].ID, maxIncidents)
	}
}

func TestSteadyStateLoggingDoesNotAllocate(t *testing.T) {
	rec, _ := newTestRecorder()
	log := NewLogger(rec).Component("hot", telemetry.L("service", "web")).WithTrace(3)
	if allocs := testing.AllocsPerRun(1000, func() { log.Info("steady") }); allocs != 0 {
		t.Fatalf("steady-state log allocates %.1f objects/op, want 0", allocs)
	}
}

func TestConsoleEcho(t *testing.T) {
	var buf bytes.Buffer
	log := NewConsole(&buf)
	log.Component("bench").WithTrace(9).Warn("slow trial", telemetry.L("trial", "3"))
	out := buf.String()
	for _, want := range []string{"warn", "bench", "slow trial", "trial=3", "trace=9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("console output %q missing %q", out, want)
		}
	}
}

func TestLevelRoundTrip(t *testing.T) {
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		got, err := ParseLevel(lv.String())
		if err != nil || got != lv {
			t.Fatalf("ParseLevel(%q) = %v, %v", lv.String(), got, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Fatal("ParseLevel accepted junk")
	}
}

// TestTailClampsToRing asks for more records than any ring holds: the
// result is sized by what the ring has, not by n.
func TestTailClampsToRing(t *testing.T) {
	rec, _ := newTestRecorder()
	log := NewLogger(rec)
	for i := 0; i < 3; i++ {
		log.Info(fmt.Sprintf("msg-%d", i))
	}
	tail := rec.Tail(math.MaxInt, LevelDebug, "")
	if len(tail) != 3 || tail[0].Msg != "msg-0" || tail[2].Msg != "msg-2" {
		t.Fatalf("tail = %+v, want the 3 records held", tail)
	}
	if cap(tail) > 3 {
		t.Fatalf("tail capacity %d, want at most the 3 records held", cap(tail))
	}
}
